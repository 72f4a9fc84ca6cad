package core

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// The paper's running example (§4.1, Fig 3): m = 3200, n = 600 gives
// k_opt ≈ 4 and f_opt ≈ 0.077.
func TestPaperFig3Parameters(t *testing.T) {
	approx(t, "OptimalK(3200,600)", OptimalK(3200, 600), 3.7, 0.05)
	if k := OptimalKInt(3200, 600); k != 4 {
		t.Errorf("OptimalKInt = %d, want 4", k)
	}
	approx(t, "OptimalFPR(3200,600)", OptimalFPR(3200, 600), 0.077, 0.002)
	// After 600 chosen insertions with k=4: f_adv = (600·4/3200)^4 = 0.75^4.
	approx(t, "AdversarialFPR", AdversarialFPR(3200, 600, 4), 0.3164, 0.0001)
	// The paper: an adversary reaches the f_opt=0.077 threshold at ~422
	// chosen insertions: (422·4/3200)^4 = 0.527^4 ≈ 0.0776.
	approx(t, "AdversarialFPR(422)", AdversarialFPR(3200, 422, 4), 0.077, 0.002)
}

func TestFPRBasics(t *testing.T) {
	// Empty filter never false-positives; saturated one always does.
	if got := FPR(1000, 0, 4); got != 0 {
		t.Errorf("FPR with n=0 = %v", got)
	}
	if got := AdversarialFPR(100, 25, 4); got != 1 {
		t.Errorf("saturating adversarial FPR = %v, want 1", got)
	}
	if got := FPR(0, 5, 4); got != 1 {
		t.Errorf("FPR with m=0 = %v, want 1", got)
	}
	// Approximation tracks the exact form for large m.
	a, b := FPR(1<<20, 100000, 7), FPRExact(1<<20, 100000, 7)
	approx(t, "FPR vs FPRExact", a, b, 1e-6)
}

// §4.1: the adversary sets nk bits against the honest expectation of
// m(1−e^(−kn/m)); at optimal parameters the gain is ≈38%.
func TestAdversaryWeightGain(t *testing.T) {
	const m, n = 3200, 600
	k := OptimalKInt(m, n)
	honest := ExpectedWeight(m, n, k)
	adversarial := float64(n * uint64(k))
	gain := adversarial/honest - 1
	if gain < 0.30 || gain > 0.45 {
		t.Errorf("adversarial weight gain = %.3f, want ≈0.38", gain)
	}
}

func TestWorstCaseParameters(t *testing.T) {
	const m, n = 3200, 600
	// eq (9): k_adv = m/(en).
	approx(t, "WorstCaseK", WorstCaseK(m, n), float64(m)/(math.E*float64(n)), 1e-12)
	if k := WorstCaseKInt(m, n); k != 2 {
		t.Errorf("WorstCaseKInt = %d, want 2", k)
	}
	// eq (10): f_adv_opt = e^(−m/(en)).
	approx(t, "WorstCaseAdvFPR", WorstCaseAdvFPR(m, n), math.Exp(-float64(m)/(math.E*float64(n))), 1e-12)
	// eq (12): ln f = −0.433 m/n.
	approx(t, "WorstCaseHonestFPR", math.Log(WorstCaseHonestFPR(m, n)), -0.433*float64(m)/float64(n), 0.01)
	// §8.1 ratios.
	approx(t, "KRatio", KRatio(), 1.88, 0.01)
	approx(t, "SizeFactorSameHonestFPR", SizeFactorSameHonestFPR(), 0.90, 0.01)
	approx(t, "SizeFactorPaperReading", SizeFactorPaperReading(), 4.8, 0.01)
}

func TestDesignWorstCase(t *testing.T) {
	d, err := DesignWorstCase(3200, 600)
	if err != nil {
		t.Fatal(err)
	}
	if d.K != 2 || d.OptimalK != 4 {
		t.Errorf("K = %d (want 2), OptimalK = %d (want 4)", d.K, d.OptimalK)
	}
	// k_opt/k_adv = e·ln2 ≈ 1.88 before rounding.
	if ratio := OptimalK(3200, 600) / WorstCaseK(3200, 600); math.Abs(ratio-1.88) > 0.01 {
		t.Errorf("k ratio = %v", ratio)
	}
	// The hardened design caps the adversary far below what she forces
	// against the classic design.
	if d.AdversarialFPR >= d.OptimalAdversarialFPR {
		t.Errorf("hardening did not help: %v vs %v", d.AdversarialFPR, d.OptimalAdversarialFPR)
	}
	// The honest price is modest (eq 12 vs eq 3).
	if d.HonestFPR < d.OptimalFPR {
		t.Error("worst-case design cannot beat the optimal honest FPR")
	}
	if _, err := DesignWorstCase(0, 5); err == nil {
		t.Error("m=0 accepted")
	}
}

// The defining property of eq (9): k_adv minimizes the adversarial FPR.
func TestWorstCaseKMinimizesAdvFPR(t *testing.T) {
	const m, n = 100000, 2000
	kAdv := WorstCaseK(m, n)
	fAt := func(k float64) float64 {
		return math.Pow(float64(n)*k/float64(m), k)
	}
	best := fAt(kAdv)
	for _, k := range []float64{kAdv * 0.5, kAdv * 0.9, kAdv * 1.1, kAdv * 2} {
		if fAt(k) < best {
			t.Errorf("f_adv(k=%v) = %v < f_adv(k_adv) = %v", k, fAt(k), best)
		}
	}
}

// The defining property of eq (2): k_opt minimizes the honest FPR.
func TestOptimalKMinimizesFPR(t *testing.T) {
	const m, n = 100000, 10000
	kOpt := OptimalK(m, n)
	fAt := func(k float64) float64 {
		return math.Pow(1-math.Exp(-k*float64(n)/float64(m)), k)
	}
	best := fAt(kOpt)
	for _, k := range []float64{kOpt * 0.5, kOpt * 0.8, kOpt * 1.2, kOpt * 2} {
		if fAt(k) < best {
			t.Errorf("f(k=%v) = %v < f(k_opt) = %v", k, fAt(k), best)
		}
	}
}

func TestOptimalMRoundTrip(t *testing.T) {
	// Sizing for (n, f) and evaluating the FPR must come back ≈ f.
	for _, f := range []float64{1.0 / 32, 1.0 / 1024, 1e-5} {
		n := uint64(10000)
		m := OptimalM(n, f)
		k := KForFPR(f)
		got := FPR(m, n, k)
		if got > f*1.15 {
			t.Errorf("FPR(OptimalM) = %v, want ≤ %v·1.15", got, f)
		}
	}
	if OptimalM(0, 0.01) != 0 || OptimalM(10, 0) != 0 || OptimalM(10, 1) != 0 {
		t.Error("OptimalM accepted invalid input")
	}
}

func TestKForFPR(t *testing.T) {
	cases := []struct {
		f    float64
		want int
	}{
		{0.5, 1}, {1.0 / 32, 5}, {1.0 / 1024, 10}, {math.Pow(2, -15), 15}, {math.Pow(2, -20), 20},
	}
	for _, c := range cases {
		if got := KForFPR(c.f); got != c.want {
			t.Errorf("KForFPR(%v) = %d, want %d", c.f, got, c.want)
		}
	}
	if KForFPR(0) != 1 || KForFPR(1) != 1 {
		t.Error("KForFPR out-of-range not clamped")
	}
}

func TestExpectedZerosAndWeight(t *testing.T) {
	// Optimal case: half the filter remains zero (§3).
	const n = 600
	m := OptimalM(n, 0.077)
	k := OptimalKInt(m, n)
	zeros := ExpectedZeros(m, n, k)
	ratio := zeros / float64(m)
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("expected zero fraction = %.3f, want ≈0.5", ratio)
	}
	approx(t, "zeros+weight", ExpectedZeros(m, n, k)+ExpectedWeight(m, n, k), float64(m), 1e-6)
}

func TestConcentrationBound(t *testing.T) {
	// eq (5) is a probability, decreasing in ε and m.
	b1 := ConcentrationBound(3200, 600, 4, 0.01)
	b2 := ConcentrationBound(3200, 600, 4, 0.05)
	if b1 > 1 || b2 > b1 {
		t.Errorf("bound not decreasing in ε: %v then %v", b1, b2)
	}
	if big := ConcentrationBound(1<<20, 600, 4, 0.01); big > 1e-9 {
		t.Errorf("bound for huge m = %v, want ≈0", big)
	}
	if z := ConcentrationBound(100, 0, 4, 0.1); z != 0 {
		t.Errorf("bound with n=0 = %v", z)
	}
}

// §4.1: adversarial saturation needs m/k items, a log(m) factor fewer than
// the coupon-collector expectation for honest traffic.
func TestSaturationCounts(t *testing.T) {
	const m, k = 3200, 4
	adv := SaturationAdversarialItems(m, k)
	if adv != 800 {
		t.Errorf("adversarial saturation = %d, want 800", adv)
	}
	rnd := SaturationRandomItems(m, k)
	if rnd <= adv*5 {
		t.Errorf("random saturation = %d, want ≫ %d", rnd, adv)
	}
	ratio := float64(rnd) / float64(adv)
	approx(t, "saturation ratio", ratio, math.Log(m), 1)
}

func TestPollutionProbability(t *testing.T) {
	// Empty filter, k=1: every item pollutes.
	approx(t, "pollution empty k=1", PollutionProbability(100, 1, 0), 1, 1e-12)
	// Full filter: nothing pollutes.
	if p := PollutionProbability(100, 2, 100); p != 0 {
		t.Errorf("pollution of full filter = %v", p)
	}
	// Fewer free bits than k: impossible.
	if p := PollutionProbability(100, 5, 97); p != 0 {
		t.Errorf("pollution with 3 free bits, k=5 = %v", p)
	}
	// Exact small case: m=4, k=2, W=2 → ordered distinct free pairs: 2·1/4² = 1/8.
	approx(t, "pollution m=4", PollutionProbability(4, 2, 2), 1.0/8, 1e-12)
	// The paper's unordered form is smaller by k!.
	approx(t, "paper pollution m=4", PollutionProbabilityPaper(4, 2, 2), 1.0/16, 1e-12)
	approx(t, "paper vs exact factor", PollutionProbability(3200, 4, 1600)/PollutionProbabilityPaper(3200, 4, 1600), 24, 1e-6)
	// Monotone decreasing in W.
	prev := 1.0
	for w := uint64(0); w <= 3000; w += 500 {
		p := PollutionProbability(3200, 4, w)
		if p > prev {
			t.Errorf("pollution probability increased at W=%d", w)
		}
		prev = p
	}
}

func TestFPForgeryProbability(t *testing.T) {
	// Table 1 bracket: (k/m)^k ≤ (W/m)^k ≤ (1/2)^k for W between k and m/2.
	const m, k = 3200, 4
	lo := FPForgeryProbability(m, k, k)
	mid := FPForgeryProbability(m, k, 1600)
	if lo > mid || mid > math.Pow(0.5, k)+1e-12 {
		t.Errorf("bracket violated: lo=%v mid=%v", lo, mid)
	}
	approx(t, "forgery W=m/2", mid, 1.0/16, 1e-9)
}

func TestSecondPreimageBloomProbability(t *testing.T) {
	approx(t, "1/m^k", SecondPreimageBloomProbability(10, 3), 1e-3, 1e-12)
	if p := SecondPreimageBloomProbability(0, 3); p != 0 {
		t.Errorf("m=0 probability = %v", p)
	}
}

func TestDeletionProbability(t *testing.T) {
	// Exact form 1−(1−k/m)^k, between 0 and 1, increasing in k.
	p2 := DeletionProbability(1000, 2)
	p8 := DeletionProbability(1000, 8)
	if !(0 < p2 && p2 < p8 && p8 < 1) {
		t.Errorf("deletion probabilities not ordered: %v, %v", p2, p8)
	}
	if DeletionProbability(5, 5) != 1 {
		t.Error("k≥m should make sharing certain")
	}
	// The paper's printed union-bound form is an upper bound of the exact
	// probability for small k/m, and can exceed 1.
	paper := DeletionProbabilityPaper(1000, 4)
	exact := DeletionProbability(1000, 4)
	if paper < exact {
		t.Errorf("paper bound %v below exact %v", paper, exact)
	}
}

// Property: all probability functions stay in [0,1] (paper form excepted)
// over arbitrary geometries.
func TestProbabilityRangesProperty(t *testing.T) {
	f := func(mRaw uint32, kRaw uint8, wRaw uint32) bool {
		m := uint64(mRaw%100000) + 1
		k := int(kRaw%32) + 1
		w := uint64(wRaw) % (m + 1)
		probs := []float64{
			FPR(m, w, k), FPRExact(m, w, k), AdversarialFPR(m, w, k),
			PollutionProbability(m, k, w), FPForgeryProbability(m, k, w),
			SecondPreimageBloomProbability(m, k), DeletionProbability(m, k),
			OptimalFPR(m, w+1), WorstCaseAdvFPR(m, w+1), WorstCaseHonestFPR(m, w+1),
		}
		for _, p := range probs {
			if math.IsNaN(p) || p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fadv/fopt = 1.05^(m/n) (§8.1): the price of worst-case parameters.
func TestWorstCaseFPRRatio(t *testing.T) {
	const m, n = 32000, 2000
	ratio := WorstCaseHonestFPR(m, n) / OptimalFPR(m, n)
	want := math.Pow(1.0488, float64(m)/float64(n)) // e^(0.4805−0.4335) per m/n unit
	if math.Abs(math.Log(ratio)-math.Log(want)) > 0.05 {
		t.Errorf("f ratio = %v, want ≈ %v", ratio, want)
	}
}
