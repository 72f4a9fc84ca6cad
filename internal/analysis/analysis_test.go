package analysis

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"evilbloom/internal/hashes"
)

func TestSeries(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if s.Len() != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Errorf("series state: %+v", s)
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "bbbb"}, [][]string{{"xxx", "y"}, {"1", "2"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a  ") || !strings.Contains(lines[0], "bbbb") {
		t.Errorf("header line %q", lines[0])
	}
}

func TestRenderChart(t *testing.T) {
	s1 := &Series{Label: "one"}
	s2 := &Series{Label: "two"}
	for i := 0; i < 20; i++ {
		s1.Add(float64(i), float64(i*i))
		s2.Add(float64(i), float64(20*i))
	}
	out := RenderChart("title", []*Series{s1, s2}, 40, 10)
	if !strings.Contains(out, "title") || !strings.Contains(out, "*") ||
		!strings.Contains(out, "o") || !strings.Contains(out, "one") {
		t.Errorf("chart missing elements:\n%s", out)
	}
	if empty := RenderChart("empty", nil, 40, 10); !strings.Contains(empty, "no data") {
		t.Errorf("empty chart: %q", empty)
	}
}

// Fig 3 regeneration matches the paper's three headline numbers.
func TestRunFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	res, err := RunFig3(DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ThresholdFPR-0.077) > 0.002 {
		t.Errorf("threshold = %v, want ≈0.077", res.ThresholdFPR)
	}
	if res.CrossingRandom < 540 || (res.CrossingRandom > 660 && res.CrossingRandom != 0) {
		t.Errorf("random crossing at %d, paper says ≈600", res.CrossingRandom)
	}
	if res.CrossingAdversarial < 410 || res.CrossingAdversarial > 435 {
		t.Errorf("adversarial crossing at %d, paper says ≈422", res.CrossingAdversarial)
	}
	if res.CrossingPartial < 490 || res.CrossingPartial > 530 {
		t.Errorf("partial crossing at %d, paper says ≈510", res.CrossingPartial)
	}
	if math.Abs(res.Adversarial[599]-0.3164) > 0.001 {
		t.Errorf("adversarial FPR at 600 = %v, paper says ≈0.316", res.Adversarial[599])
	}
	// Birthday-paradox superimposition: the curves agree early on.
	if math.Abs(res.Random[10]-res.Adversarial[10]) > 0.001 {
		t.Errorf("early curves diverge: %v vs %v", res.Random[10], res.Adversarial[10])
	}
	// Analytic references bracket the measurements.
	if math.Abs(res.AnalyticAdversarial[599]-0.31640625) > 1e-9 {
		t.Errorf("analytic adversarial end = %v", res.AnalyticAdversarial[599])
	}
	if res.ForgeAttempts == 0 {
		t.Error("no forge attempts recorded")
	}
}

func TestRunFig3Validation(t *testing.T) {
	cfg := DefaultFig3Config()
	cfg.N = 0
	if _, err := RunFig3(cfg); err == nil {
		t.Error("N=0 accepted")
	}
	cfg = DefaultFig3Config()
	cfg.HonestPrefix = cfg.N + 1
	if _, err := RunFig3(cfg); err == nil {
		t.Error("prefix > N accepted")
	}
}

// Fig 5's qualitative shape at laptop scale: higher exponents forge fewer
// URLs per unit time, and per-item attempt cost grows with the exponent.
func TestRunFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("time-budgeted campaign")
	}
	cfg := Fig5Config{
		Capacity:     50000,
		FPRExponents: []int{5, 10},
		TimeBudget:   800 * time.Millisecond,
		Checkpoint:   1000,
		Seed:         1,
	}
	series, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if s.K != s.FPRExponent {
			t.Errorf("k = %d for exponent %d", s.K, s.FPRExponent)
		}
		if s.Forged == 0 {
			t.Errorf("exponent %d forged nothing", s.FPRExponent)
		}
	}
	// Attempts per forged item grows with the exponent (exponential cost).
	apf5 := float64(series[0].Attempts[len(series[0].Attempts)-1]) / float64(series[0].Forged)
	apf10 := float64(series[1].Attempts[len(series[1].Attempts)-1]) / float64(series[1].Forged)
	if apf10 <= apf5 {
		t.Errorf("attempts/item: f=2^-10 (%v) not above f=2^-5 (%v)", apf10, apf5)
	}
}

func TestRunFig5Validation(t *testing.T) {
	if _, err := RunFig5(Fig5Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

// Fig 6's qualitative shape: forging cost falls steeply with occupation,
// and analytic attempts match 1/(W/m)^k.
func TestRunFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	cfg := Fig6Config{
		Capacity:       20000,
		FPRExponents:   []int{5},
		OccupationsPct: []int{50, 100},
		Repeats:        2,
		AttemptBudget:  5000000,
		Seed:           1,
	}
	series, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := series[0].Points
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].AnalyticAttempts <= pts[1].AnalyticAttempts {
		t.Errorf("analytic cost did not fall with occupation: %v then %v",
			pts[0].AnalyticAttempts, pts[1].AnalyticAttempts)
	}
	// At 100% occupation of an f=2^-5 filter, forging is cheap and must
	// have been measured.
	if pts[1].MeasuredAttempts < 0 {
		t.Error("full-occupation forgery not measured")
	}
	// Measured within 5x of analytic (Monte Carlo slack for few repeats).
	ratio := pts[1].MeasuredAttempts / pts[1].AnalyticAttempts
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("measured/analytic = %v", ratio)
	}
}

// Fig 8 headline: no attack ≈ 0.06, full attack ≈ 0.6–0.7, monotone in the
// number of polluted stages.
func TestRunFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 11 dablooms instances")
	}
	cfg := DefaultFig8Config()
	cfg.StageCapacity = 2000 // laptop-scale; same fill fractions and FPRs
	cfg.Probes = 50000
	res, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EstimatedF) != cfg.Stages+1 {
		t.Fatalf("got %d levels", len(res.EstimatedF))
	}
	if math.Abs(res.AnalyticNoAttack-0.0634) > 0.005 {
		t.Errorf("analytic no-attack F = %v, want ≈0.063", res.AnalyticNoAttack)
	}
	if res.AnalyticFull < 0.55 || res.AnalyticFull > 0.75 {
		t.Errorf("analytic full-attack F = %v, paper shows ≈0.6–0.7", res.AnalyticFull)
	}
	if math.Abs(res.EstimatedF[0]-res.AnalyticNoAttack) > 0.03 {
		t.Errorf("estimated no-attack F = %v vs analytic %v", res.EstimatedF[0], res.AnalyticNoAttack)
	}
	if math.Abs(res.EstimatedF[cfg.Stages]-res.AnalyticFull) > 0.08 {
		t.Errorf("estimated full F = %v vs analytic %v", res.EstimatedF[cfg.Stages], res.AnalyticFull)
	}
	for i := 1; i <= cfg.Stages; i++ {
		if res.EstimatedF[i] < res.EstimatedF[i-1]-0.01 {
			t.Errorf("F not monotone at level %d: %v then %v", i, res.EstimatedF[i-1], res.EstimatedF[i])
		}
	}
	// Empirical probing tracks the estimates.
	if len(res.EmpiricalF) == cfg.Stages+1 {
		if math.Abs(res.EmpiricalF[cfg.Stages]-res.EstimatedF[cfg.Stages]) > 0.05 {
			t.Errorf("empirical full F = %v vs estimated %v",
				res.EmpiricalF[cfg.Stages], res.EstimatedF[cfg.Stages])
		}
	}
}

func TestRunFig9(t *testing.T) {
	rows := RunFig9([]uint64{128, 1024}, []int{5, 10, 15, 20})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// 128 MB = 2^30 bits → ⌈log₂m⌉ = 30; k=10 → 300 bits.
	if got := rows[0].BitsNeeded[10]; got != 300 {
		t.Errorf("bits(128MB, 2^-10) = %d, want 300", got)
	}
	// 1 GB = 2^33 bits → 33 bits; k=20 → 660.
	if got := rows[1].BitsNeeded[20]; got != 660 {
		t.Errorf("bits(1GB, 2^-20) = %d, want 660", got)
	}
	out := FormatFig9(rows, []int{5, 10, 15, 20})
	if !strings.Contains(out, "300") || !strings.Contains(out, "660") {
		t.Errorf("formatted Fig9 missing values:\n%s", out)
	}
}

func TestRunFig9Domains(t *testing.T) {
	domains := RunFig9Domains([]int{5, 10, 15, 20})
	byKey := map[string]uint64{}
	for _, d := range domains {
		byKey[d.Algorithm.String()+"/"+strconv.Itoa(d.FPRExponent)] = d.MaxMBytes
	}
	// Fig 9: one SHA-512 call covers f ≥ 2^-15 for m under a GByte:
	// 512/15 = 34 bits → 2^34 bits = 2 GB.
	if byKey["SHA-512/15"] < 1024 {
		t.Errorf("SHA-512 @ 2^-15 covers %d MB, want ≥ 1 GB", byKey["SHA-512/15"])
	}
	// f = 2^-20: 512/20 = 25 bits → 4 MB only — "several calls" territory.
	if byKey["SHA-512/20"] >= 1024 {
		t.Errorf("SHA-512 @ 2^-20 covers %d MB, want < 1 GB", byKey["SHA-512/20"])
	}
	// SHA-1 @ 2^-5: 160/5 = 32 bits → 512 MB.
	if byKey["SHA-1/5"] != 512 {
		t.Errorf("SHA-1 @ 2^-5 = %d MB, want 512", byKey["SHA-1/5"])
	}
}

func TestRunTable1(t *testing.T) {
	rows := RunTable1(32, 3200, 4, 800)
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Probability != math.Pow(2, -32) {
		t.Errorf("hash second pre-image = %v", rows[0].Probability)
	}
	// Ordering claim from §4.3: "The pollution attack has the highest
	// success probability" — true for W below m/2.
	if rows[2].Probability <= rows[3].Probability {
		t.Errorf("pollution (%v) not above forgery (%v) at W=m/4", rows[2].Probability, rows[3].Probability)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Pollution") || !strings.Contains(out, "Deletion") {
		t.Errorf("formatted table:\n%s", out)
	}
}

// Table 2's shape: recycling beats naive for every wide digest, and the
// speedup roughly tracks the call-count ratio.
func TestRunTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	cfg := DefaultTable2Config()
	cfg.Iterations = 5000
	rows, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byAlg := map[hashes.Algorithm]Table2Row{}
	for _, r := range rows {
		byAlg[r.Algorithm] = r
	}
	for _, alg := range []hashes.Algorithm{hashes.SHA1, hashes.SHA256, hashes.SHA384, hashes.SHA512, hashes.MD5} {
		r := byAlg[alg]
		if math.IsNaN(r.RecycleNs) {
			t.Errorf("%v: recycling unavailable", alg)
			continue
		}
		if r.Speedup < 2 {
			t.Errorf("%v: speedup = %v, want ≥ 2 (k=10 calls vs %d)", alg, r.Speedup, r.RecycleCalls)
		}
	}
	// SHA-512: one call for k=10, m≈1.44e7 (10×24=240 ≤ 512).
	if byAlg[hashes.SHA512].RecycleCalls != 1 {
		t.Errorf("SHA-512 recycle calls = %d, want 1", byAlg[hashes.SHA512].RecycleCalls)
	}
	// SipHash-2-4, the hardened serving hash: two 24-bit indexes per 64-bit
	// digest, so 5 calls against 10 — the count is exact; of the time, only
	// that a keyed row never loses by recycling.
	if r := byAlg[hashes.SipHash24Alg]; r.NaiveCalls != 10 || r.RecycleCalls != 5 {
		t.Errorf("SipHash-2-4 calls naive/recycling = %d/%d, want 10/5", r.NaiveCalls, r.RecycleCalls)
	}
	for _, r := range rows {
		if r.Algorithm.Keyed() && !(r.RecycleNs <= r.NaiveNs) {
			t.Errorf("%v: recycling %.0f ns against naive %.0f ns, want no slower", r.Algorithm, r.RecycleNs, r.NaiveNs)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "SHA-512") || !strings.Contains(out, "MurmurHash-32") {
		t.Errorf("formatted table:\n%s", out)
	}
}

func TestRunTable2Validation(t *testing.T) {
	if _, err := RunTable2(Table2Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestRunSquid(t *testing.T) {
	if testing.Short() {
		t.Skip("forging campaign")
	}
	cfg := DefaultExperimentConfig()
	res, err := RunSquid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Polluted.FalseHits <= res.Clean.FalseHits {
		t.Errorf("no amplification: %d vs %d", res.Polluted.FalseHits, res.Clean.FalseHits)
	}
	out := FormatSquid(res, cfg.Probes)
	if !strings.Contains(out, "762") {
		t.Errorf("formatted squid table:\n%s", out)
	}
}
