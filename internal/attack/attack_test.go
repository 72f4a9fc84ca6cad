package attack

import (
	"errors"
	"math"
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
	"evilbloom/internal/urlgen"
)

func newFig3Bloom(t testing.TB) *core.Bloom {
	t.Helper()
	d, err := hashes.NewDigester(hashes.SHA256, nil)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := hashes.NewSalted(d, 4, 3200)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewBloom(fam)
}

func TestForgePollutingSetsKFreshBits(t *testing.T) {
	b := newFig3Bloom(t)
	forger := NewForger(NewBloomView(b), urlgen.New(1))
	for i := 0; i < 50; i++ {
		item, idx, err := forger.ForgePolluting(1 << 20)
		if err != nil {
			t.Fatalf("forge %d: %v", i, err)
		}
		if len(idx) != 4 {
			t.Fatalf("idx len = %d", len(idx))
		}
		before := b.Weight()
		b.Add(item)
		if got := b.Weight() - before; got != 4 {
			t.Fatalf("insert %d set %d fresh bits, want 4", i, got)
		}
	}
}

func TestForgeFalsePositive(t *testing.T) {
	b := newFig3Bloom(t)
	gen := urlgen.New(2)
	for i := 0; i < 300; i++ {
		b.Add(gen.Next())
	}
	forger := NewForger(NewBloomView(b), urlgen.New(99))
	for i := 0; i < 20; i++ {
		item, _, err := forger.ForgeFalsePositive(1 << 22)
		if err != nil {
			t.Fatalf("forge %d: %v", i, err)
		}
		if !b.Test(item) {
			t.Fatal("forged item is not a false positive")
		}
	}
}

func TestForgeExpensiveQuery(t *testing.T) {
	b := newFig3Bloom(t)
	gen := urlgen.New(3)
	for i := 0; i < 300; i++ {
		b.Add(gen.Next())
	}
	view := NewBloomView(b)
	forger := NewForger(view, urlgen.New(100))
	for i := 0; i < 20; i++ {
		item, idx, err := forger.ForgeExpensiveQuery(1 << 22)
		if err != nil {
			t.Fatalf("forge %d: %v", i, err)
		}
		if b.Test(item) {
			t.Fatal("expensive query unexpectedly a member")
		}
		for j := 0; j < len(idx)-1; j++ {
			if !view.OccupiedAt(j, idx[j]) {
				t.Fatal("prefix index not occupied")
			}
		}
		if view.OccupiedAt(len(idx)-1, idx[len(idx)-1]) {
			t.Fatal("final index occupied")
		}
	}
}

func TestForgeExpensiveQueryNeedsK2(t *testing.T) {
	d, err := hashes.NewDigester(hashes.SHA256, nil)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := hashes.NewSalted(d, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	forger := NewForger(NewBloomView(core.NewBloom(fam)), urlgen.New(0))
	if _, _, err := forger.ForgeExpensiveQuery(10); err == nil {
		t.Error("k=1 expensive query accepted")
	}
}

func TestBudgetExhausted(t *testing.T) {
	b := newFig3Bloom(t)
	// Empty filter: false positives are impossible; the budget must trip.
	forger := NewForger(NewBloomView(b), urlgen.New(4))
	_, _, err := forger.ForgeFalsePositive(100)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
	if forger.Attempts != 100 {
		t.Errorf("Attempts = %d, want 100", forger.Attempts)
	}
}

func TestForgeDeletion(t *testing.T) {
	b := newFig3Bloom(t)
	victim := []byte("http://victim.example.com/")
	b.Add(victim)
	view := NewBloomView(b)
	victimIdx := view.Indexes(nil, victim)
	forger := NewForger(view, urlgen.New(5))
	item, idx, err := forger.ForgeDeletion(victimIdx, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if item == nil || !SharesIndex(view, idx, victimIdx) {
		t.Error("forged deletion item does not overlap victim")
	}
	if _, _, err := forger.ForgeDeletion(nil, 10); err == nil {
		t.Error("empty victim accepted")
	}
}

// Fig 3 reproduction: the chosen-insertion adversary reaches the designer's
// f_opt = 0.077 threshold after ≈422 insertions instead of 600, and reaches
// f ≈ 0.316 at 600.
func TestPollutionCampaignReproducesFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign")
	}
	b := newFig3Bloom(t)
	adv := NewChosenInsertion(NewBloomView(b), b, b, urlgen.New(6))
	points, err := adv.PolluteN(600, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 600 {
		t.Fatalf("got %d points", len(points))
	}
	// Weight after n chosen insertions is exactly nk.
	if points[599].Weight != 2400 {
		t.Errorf("weight after 600 = %d, want 2400", points[599].Weight)
	}
	// FPR at 600 is exactly (2400/3200)^4 = 0.75^4 ≈ 0.316 (eq 7).
	if math.Abs(points[599].FPR-math.Pow(0.75, 4)) > 1e-12 {
		t.Errorf("FPR after 600 = %v, want 0.75^4", points[599].FPR)
	}
	// Threshold crossing at ≈422.
	cross := 0
	for i, p := range points {
		if p.FPR >= 0.077 {
			cross = i + 1
			break
		}
	}
	if cross < 410 || cross > 435 {
		t.Errorf("threshold crossed at %d chosen insertions, paper says ≈422", cross)
	}
}

// Partial attack: 400 honest insertions then adversarial ones; the paper
// reports the threshold at ≈510 total insertions.
func TestPartialPollutionReproducesFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign")
	}
	b := newFig3Bloom(t)
	honest := urlgen.New(7)
	for i := 0; i < 400; i++ {
		b.Add(honest.Next())
	}
	adv := NewChosenInsertion(NewBloomView(b), b, b, urlgen.New(8))
	points, err := adv.PolluteN(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	cross := uint64(0)
	for _, p := range points {
		if p.FPR >= 0.077 {
			cross = p.Inserted
			break
		}
	}
	if cross < 490 || cross > 530 {
		t.Errorf("partial-attack threshold at %d total insertions, paper says ≈510", cross)
	}
}

// §4.1 saturation: the adversary needs ⌊m/k⌋ items plus a small endgame
// tail, versus m·ln(m)/k ≈ 6500 for honest traffic.
func TestSaturate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign")
	}
	d, err := hashes.NewDigester(hashes.SHA256, nil)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := hashes.NewSalted(d, 4, 800)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBloom(fam)
	adv := NewChosenInsertion(NewBloomView(b), b, b, urlgen.New(9))
	inserted, err := adv.Saturate(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Weight() != 800 {
		t.Fatalf("filter not saturated: W=%d", b.Weight())
	}
	// 800/4 = 200 strict items plus a greedy endgame tail.
	if inserted < 200 || inserted > 450 {
		t.Errorf("saturation used %d items, want ≈200 (m/k) plus small tail", inserted)
	}
	if inserted >= core.SaturationRandomItems(800, 4) {
		t.Errorf("adversarial saturation (%d) not cheaper than honest (%d)",
			inserted, core.SaturationRandomItems(800, 4))
	}
}

func TestQueryOnlyFalsePositiveFlood(t *testing.T) {
	b := newFig3Bloom(t)
	gen := urlgen.New(10)
	for i := 0; i < 400; i++ {
		b.Add(gen.Next())
	}
	adv := NewQueryOnly(NewBloomView(b), urlgen.New(11))
	fps, err := adv.FalsePositives(10, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range fps {
		if !b.Test(fp) {
			t.Error("flood item is not a false positive")
		}
	}
	qs, err := adv.ExpensiveQueries(5, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if b.Test(q) {
			t.Error("expensive query is a member")
		}
	}
}

// The deletion adversary evicts a victim from a counting filter using only
// removals of items the filter believes present.
func TestDeletionEvict(t *testing.T) {
	fam, err := hashes.NewDoubleHashing(4, 2048, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCounting(fam, 4, core.Wrap)
	if err != nil {
		t.Fatal(err)
	}
	gen := urlgen.New(12)
	for i := 0; i < 300; i++ {
		c.Add(gen.Next())
	}
	victim := []byte("http://victim.example.com/page")
	c.Add(victim)
	if !c.Test(victim) {
		t.Fatal("victim not inserted")
	}
	adv := NewDeletion(c, urlgen.New(13))
	removed, err := adv.Evict(victim, 1<<24, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Test(victim) {
		t.Error("victim still present after eviction")
	}
	if len(removed) == 0 {
		t.Error("eviction reported success without removals")
	}
}

func fig3AttackSuccessRates(t *testing.T, w uint64) (polluting, fp float64) {
	t.Helper()
	b := newFig3Bloom(t)
	gen := urlgen.New(14)
	for b.Weight() < w {
		b.Add(gen.Next())
	}
	view := NewBloomView(b)
	probe := urlgen.New(15)
	var scratch []uint64
	const trials = 200000
	var nPoll, nFP int
	for i := 0; i < trials; i++ {
		scratch = view.Indexes(scratch[:0], probe.Next())
		if IsPolluting(view, scratch) {
			nPoll++
		}
		if IsFalsePositive(view, scratch) {
			nFP++
		}
	}
	return float64(nPoll) / trials, float64(nFP) / trials
}

// Table 1 Monte-Carlo: empirical success rates match the analytic
// probabilities C(m−W,k)/m^k (pollution) and (W/m)^k (forgery).
func TestTable1EmpiricalMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	const m, k = 3200, 4
	pollEmp, fpEmp := fig3AttackSuccessRates(t, 1600)
	pollWant := core.PollutionProbability(m, k, 1600)
	fpWant := core.FPForgeryProbability(m, k, 1600)
	if math.Abs(pollEmp-pollWant) > 0.01 {
		t.Errorf("pollution success = %v, analytic %v", pollEmp, pollWant)
	}
	if math.Abs(fpEmp-fpWant) > 0.01 {
		t.Errorf("forgery success = %v, analytic %v", fpEmp, fpWant)
	}
}

// Keyed filters defeat forgery: with an HMAC family and an unknown key the
// adversary's success collapses to the baseline random rate.
func TestKeyedFilterResistsTargetedForgery(t *testing.T) {
	// The adversary "knows" a guessed key, the server uses another.
	server, err := core.NewBloomOptimal(600, 0.077, hashes.HMACSHA256, []byte("server-secret"))
	if err != nil {
		t.Fatal(err)
	}
	gen := urlgen.New(16)
	for i := 0; i < 600; i++ {
		server.Add(gen.Next())
	}
	guess, err := core.NewBloomOptimal(600, 0.077, hashes.HMACSHA256, []byte("wrong-guess"))
	if err != nil {
		t.Fatal(err)
	}
	// Adversary forges "false positives" against her guessed-key model of
	// the filter (she copies the server's bit pattern — public in the threat
	// model — but derives indexes with the wrong key).
	mirror := core.NewBloom(guess.Family())
	for _, i := range server.Bits().Support() {
		mirror.AddIndexesAtomic([]uint64{i})
	}
	forger := NewForger(NewBloomView(mirror), urlgen.New(17))
	hits := 0
	const forgeries = 60
	for i := 0; i < forgeries; i++ {
		item, _, err := forger.ForgeFalsePositive(1 << 22)
		if err != nil {
			t.Fatal(err)
		}
		if server.Test(item) {
			hits++
		}
	}
	rate := float64(hits) / forgeries
	base := server.EstimatedFPR()
	// Against the true filter her "forgeries" behave like random queries.
	if rate > base*3+0.05 {
		t.Errorf("forgery success against keyed filter = %v, baseline %v", rate, base)
	}
}

func BenchmarkForgePolluting(b *testing.B) {
	bl := newFig3Bloom(b)
	adv := NewChosenInsertion(NewBloomView(bl), bl, bl, urlgen.New(18))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bl.Weight() > 2400 { // keep occupancy bounded
			bl.Reset()
		}
		item, _, err := adv.forger.ForgePolluting(0)
		if err != nil {
			b.Fatal(err)
		}
		bl.Add(item)
	}
}

// End-to-end ablation: the same pollution campaign against the classic and
// the worst-case design — the adversary's achieved FPR must match eq (7)
// and eq (10) respectively, with the hardened filter well below.
func TestWorstCaseDesignContainsPollution(t *testing.T) {
	const m, n = 3200, 600
	classic, err := core.NewBloomOptimal(n, core.OptimalFPR(m, n), hashes.SHA256, nil)
	if err != nil {
		t.Fatal(err)
	}
	design, err := core.DesignWorstCase(m, n)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := hashes.NewDoubleHashing(design.K, m, 7)
	if err != nil {
		t.Fatal(err)
	}
	hardened := core.NewBloom(fam)
	for name, b := range map[string]*core.Bloom{"classic": classic, "hardened": hardened} {
		adv := NewChosenInsertion(NewBloomView(b), b, b, urlgen.New(3))
		if _, err := adv.PolluteN(n, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	classicFPR := classic.EstimatedFPR()
	hardenedFPR := hardened.EstimatedFPR()
	if hardenedFPR >= classicFPR {
		t.Errorf("hardened FPR %v not below classic %v under attack", hardenedFPR, classicFPR)
	}
	if math.Abs(hardenedFPR-core.WorstCaseAdvFPR(m, n)) > 0.05 {
		t.Errorf("hardened FPR = %v, eq (10) predicts %v", hardenedFPR, core.WorstCaseAdvFPR(m, n))
	}
}
