package core

import (
	"fmt"
	"math"
)

// Ln2Sq is (ln 2)², the constant of the classic sizing rule m = n·|ln f|/(ln 2)².
var Ln2Sq = math.Ln2 * math.Ln2

// FPR returns the standard approximate false-positive probability of eq (1):
// f ≈ (1 − e^(−kn/m))^k, after n random insertions into an m-bit filter
// using k hash functions.
func FPR(m, n uint64, k int) float64 {
	if m == 0 || k <= 0 {
		return 1
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// FPRExact returns the un-approximated form (1 − (1 − 1/m)^(kn))^k.
func FPRExact(m, n uint64, k int) float64 {
	if m == 0 || k <= 0 {
		return 1
	}
	// (1-1/m)^(kn) = exp(kn·ln(1-1/m)); Log1p keeps precision for large m.
	p := math.Exp(float64(k) * float64(n) * math.Log1p(-1/float64(m)))
	return math.Pow(1-p, float64(k))
}

// AdversarialFPR returns eq (7): f_adv = (nk/m)^k, the false-positive
// probability after n chosen insertions that each set k previously-unset
// bits. Saturation (nk ≥ m) yields 1.
func AdversarialFPR(m, n uint64, k int) float64 {
	if m == 0 || k <= 0 {
		return 1
	}
	frac := float64(n) * float64(k) / float64(m)
	if frac >= 1 {
		return 1
	}
	return math.Pow(frac, float64(k))
}

// OptimalK returns eq (2): k_opt = (m/n)·ln 2, the real-valued number of hash
// functions minimizing the average-case false-positive probability.
func OptimalK(m, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(m) / float64(n) * math.Ln2
}

// OptimalKInt returns k_opt rounded to the nearest usable integer (≥1).
func OptimalKInt(m, n uint64) int {
	k := int(math.Round(OptimalK(m, n)))
	if k < 1 {
		k = 1
	}
	return k
}

// OptimalFPR returns eq (3): ln f_opt = −(m/n)(ln 2)², the false-positive
// probability at the optimal k.
func OptimalFPR(m, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return math.Exp(-float64(m) / float64(n) * Ln2Sq)
}

// OptimalM returns the filter size for n items at target false-positive
// probability f under optimal k: m = n·|ln f|/(ln 2)², rounded up.
func OptimalM(n uint64, f float64) uint64 {
	if f <= 0 || f >= 1 || n == 0 {
		return 0
	}
	return uint64(math.Ceil(float64(n) * -math.Log(f) / Ln2Sq))
}

// KForFPR returns the optimal integer k for a target false-positive
// probability under optimal sizing: k = ⌈log₂(1/f)⌉ (pyBloom's choice).
func KForFPR(f float64) int {
	if f <= 0 || f >= 1 {
		return 1
	}
	k := int(math.Ceil(-math.Log2(f)))
	if k < 1 {
		k = 1
	}
	return k
}

// WorstCaseK returns eq (9): k_adv_opt = m/(e·n), the number of hash
// functions minimizing the adversary's achievable false-positive probability
// (§8.1) rather than the honest one.
func WorstCaseK(m, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(m) / (math.E * float64(n))
}

// WorstCaseKInt returns k_adv_opt rounded to the nearest usable integer (≥1).
func WorstCaseKInt(m, n uint64) int {
	k := int(math.Round(WorstCaseK(m, n)))
	if k < 1 {
		k = 1
	}
	return k
}

// WorstCaseAdvFPR returns eq (10): f_adv_opt = e^(−m/(e·n)), the adversarial
// false-positive probability when the filter uses k = k_adv_opt.
func WorstCaseAdvFPR(m, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return math.Exp(-float64(m) / (math.E * float64(n)))
}

// WorstCaseHonestFPR returns eq (11)/(12): the honest (uniform-input)
// false-positive probability when k = k_adv_opt is deployed:
// f = (1 − e^(−1/e))^(m/(n·e)), i.e. ln f = −0.433·m/n.
func WorstCaseHonestFPR(m, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-1/math.E), float64(m)/(float64(n)*math.E))
}

// WorstCaseDesign captures a filter hardened against chosen insertions: k is
// chosen to minimize the adversary's achievable false-positive probability
// instead of the honest one.
type WorstCaseDesign struct {
	// M and N are the designer's memory and capacity inputs.
	M, N uint64
	// K is k_adv_opt = m/(en) rounded (eq 9).
	K int
	// AdversarialFPR is the best the chosen-insertion adversary can force
	// (eq 10).
	AdversarialFPR float64
	// HonestFPR is the price paid on uniform inputs (eq 11–12).
	HonestFPR float64
	// OptimalK and OptimalFPR are the classic design for comparison.
	OptimalK   int
	OptimalFPR float64
	// OptimalAdversarialFPR is what the adversary forces against the
	// classic design (eq 7 at n = N) — the number the hardening removes.
	OptimalAdversarialFPR float64
}

// DesignWorstCase computes the §8.1 design for a memory budget of m bits
// and n anticipated insertions: developers "keep their fast
// non-cryptographic hash functions but at the cost of a larger Bloom
// filter". Chosen-insertion adversaries are contained; query-only ones are
// not.
func DesignWorstCase(m, n uint64) (*WorstCaseDesign, error) {
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("core: m and n must be positive")
	}
	return &WorstCaseDesign{
		M:                     m,
		N:                     n,
		K:                     WorstCaseKInt(m, n),
		AdversarialFPR:        WorstCaseAdvFPR(m, n),
		HonestFPR:             WorstCaseHonestFPR(m, n),
		OptimalK:              OptimalKInt(m, n),
		OptimalFPR:            OptimalFPR(m, n),
		OptimalAdversarialFPR: AdversarialFPR(m, n, OptimalKInt(m, n)),
	}, nil
}

// PaperSizeFactor is the m′/m ≈ 4.8 figure the paper states in §8.1 when
// comparing the worst-case design against a classically-sized filter at the
// same false-positive probability. Note that solving eq (12) against eq (3)
// directly yields 0.433/(ln 2)² ≈ 0.90 (see SizeFactorSameHonestFPR); the
// paper's 4.8 corresponds to 1/(0.433·(ln 2)²), i.e. the reciprocal pairing.
// Both are exposed so EXPERIMENTS.md can report the discrepancy.
const PaperSizeFactor = 4.8

// SizeFactorSameHonestFPR returns m′/m such that a classically-designed
// filter (eq 2–3) reaches the same honest false-positive probability as the
// worst-case design of eq (9): solving −(m′/n)(ln 2)² = −0.433·m/n gives
// m′/m = 0.433/(ln 2)² ≈ 0.90.
func SizeFactorSameHonestFPR() float64 {
	// ln f_adv = −0.433·m/n must equal −(m′/n)(ln 2)² ⇒ m′/m = 0.433/(ln 2)².
	return -math.Log(1-math.Exp(-1/math.E)) / math.E / Ln2Sq
}

// SizeFactorPaperReading returns 1/(0.433·(ln 2)²) ≈ 4.8, the closed form
// that reproduces the paper's stated factor of "almost 5".
func SizeFactorPaperReading() float64 {
	return 1 / (-math.Log(1-math.Exp(-1/math.E)) / math.E * Ln2Sq)
}

// KRatio returns k_opt/k_adv_opt = e·ln 2 ≈ 1.88 (§8.1).
func KRatio() float64 { return math.E * math.Ln2 }

// ExpectedZeros returns eq (4): E(X) = m·p with p = (1 − 1/m)^(kn), the
// expected number of unset bits after n uniform insertions.
func ExpectedZeros(m, n uint64, k int) float64 {
	if m == 0 {
		return 0
	}
	p := math.Exp(float64(k) * float64(n) * math.Log1p(-1/float64(m)))
	return float64(m) * p
}

// ExpectedWeight returns m − E(X): the expected Hamming weight after n
// uniform insertions.
func ExpectedWeight(m, n uint64, k int) float64 {
	return float64(m) - ExpectedZeros(m, n, k)
}

// ConcentrationBound returns eq (5), the Azuma–Hoeffding tail
// P(|X − mp| ≥ εm) ≤ 2·e^(−2m²ε²/(nk)): the fraction of zeros is extremely
// concentrated, so adversarial deviations are detectable (§8).
func ConcentrationBound(m, n uint64, k int, eps float64) float64 {
	if n == 0 || k <= 0 {
		return 0
	}
	b := 2 * math.Exp(-2*float64(m)*float64(m)*eps*eps/(float64(n)*float64(k)))
	if b > 1 {
		return 1
	}
	return b
}

// SaturationRandomItems returns ⌊m·ln(m)/k⌋: the expected number of uniform
// insertions needed to saturate the filter (coupon collector, k coupons per
// draw, §4.1).
func SaturationRandomItems(m uint64, k int) uint64 {
	if m == 0 || k <= 0 {
		return 0
	}
	return uint64(float64(m) * math.Log(float64(m)) / float64(k))
}

// SaturationAdversarialItems returns ⌊m/k⌋: the chosen insertions needed to
// saturate — a log(m) factor cheaper than honest traffic (§4.1).
func SaturationAdversarialItems(m uint64, k int) uint64 {
	if k <= 0 {
		return 0
	}
	return m / uint64(k)
}

// PollutionProbability returns the probability that a uniformly random item
// sets k previously-unset, pairwise-distinct bits when the filter has
// Hamming weight W: the k ordered uniform indexes must land on distinct free
// positions, i.e. (m−W)(m−W−1)…(m−W−k+1)/m^k. Table 1 prints this entry as
// C(m−W,k)/m^k, which omits the k! orderings of the index tuple; the Monte-
// Carlo tests confirm the ordered form (see PollutionProbabilityPaper for
// the literal one). Computed in log space so huge filters do not overflow.
func PollutionProbability(m uint64, k int, w uint64) float64 {
	if m == 0 || k <= 0 || w > m {
		return 0
	}
	free := m - w
	if uint64(k) > free {
		return 0
	}
	var ln float64
	for i := 0; i < k; i++ {
		ln += math.Log(float64(free-uint64(i))) - math.Log(float64(m))
	}
	return math.Exp(ln)
}

// PollutionProbabilityPaper evaluates Table 1's pollution row exactly as
// printed: C(m−W, k)/m^k — smaller than the true success probability by k!
// because it counts unordered index sets against an ordered sample space.
func PollutionProbabilityPaper(m uint64, k int, w uint64) float64 {
	if m == 0 || k <= 0 || w > m {
		return 0
	}
	free := m - w
	if uint64(k) > free {
		return 0
	}
	var ln float64
	for i := 0; i < k; i++ {
		ln += math.Log(float64(free - uint64(i)))
		ln -= math.Log(float64(i + 1))
		ln -= math.Log(float64(m))
	}
	return math.Exp(ln)
}

// FPForgeryProbability returns Table 1's forgery entry: (W/m)^k — the
// probability that a uniformly random item is a false positive against a
// filter of Hamming weight W (eq 8's success rate).
func FPForgeryProbability(m uint64, k int, w uint64) float64 {
	if m == 0 || k <= 0 {
		return 0
	}
	return math.Pow(float64(w)/float64(m), float64(k))
}

// SecondPreimageBloomProbability returns Table 1's "second pre-image
// (Bloom)" entry 1/m^k: the chance a random item reproduces a specific index
// set I_y.
func SecondPreimageBloomProbability(m uint64, k int) float64 {
	if m == 0 || k <= 0 {
		return 0
	}
	return math.Exp(-float64(k) * math.Log(float64(m)))
}

// DeletionProbability returns the probability that a uniformly random item
// shares at least one index with a target item whose k indexes are distinct:
// 1 − (1 − k/m)^k. This is the exact form of Table 1's deletion entry (the
// paper prints the union bound Σ C(k,i)(m−i)^k/m^k; see
// DeletionProbabilityPaper).
func DeletionProbability(m uint64, k int) float64 {
	if m == 0 || k <= 0 {
		return 0
	}
	if uint64(k) >= m {
		return 1
	}
	return 1 - math.Pow(1-float64(k)/float64(m), float64(k))
}

// DeletionProbabilityPaper evaluates Table 1's deletion row exactly as
// printed: Σ_{i=1..k} C(k,i)·(m−i)^k / m^k. The printed expression is a
// (loose) inclusion–exclusion expansion without alternating signs and can
// exceed 1; it is provided for fidelity with the paper, capped at 1 when
// reported as a probability.
func DeletionProbabilityPaper(m uint64, k int) float64 {
	if m == 0 || k <= 0 {
		return 0
	}
	var sum float64
	choose := 1.0
	for i := 1; i <= k; i++ {
		choose = choose * float64(k-i+1) / float64(i)
		sum += choose * math.Exp(float64(k)*(math.Log(float64(m)-float64(i))-math.Log(float64(m))))
	}
	return sum
}
