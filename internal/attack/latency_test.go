package attack

import (
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
	"evilbloom/internal/urlgen"
)

// probesUntilReject counts how many bit lookups a short-circuiting query
// performs: position of the first unset bit (or k when all are set).
func probesUntilReject(view View, idx []uint64) int {
	for i, x := range idx {
		if !view.OccupiedAt(i, x) {
			return i + 1
		}
	}
	return len(idx)
}

// §4.2's dummy-query attack: crafted negative queries probe all k positions
// before failing, while random negative queries bail out after ~1/(1−fill)
// probes — the worst-case execution time gap the adversary forces on
// "applications with very large Bloom filters".
func TestExpensiveQueriesMaximizeProbes(t *testing.T) {
	const m, k = 1 << 16, 8
	d, err := hashes.NewDigester(hashes.SHA256, nil)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := hashes.NewSalted(d, k, m)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBloom(fam)
	gen := urlgen.New(1)
	for b.Fill() < 0.5 {
		b.Add(gen.Next())
	}
	view := NewBloomView(b)

	// Random negative queries: expected probes ≈ Σ fill^i ≈ 2 at fill 0.5.
	probe := urlgen.New(2)
	var idx []uint64
	totalRandom, negatives := 0, 0
	for negatives < 2000 {
		idx = view.Indexes(idx[:0], probe.Next())
		p := probesUntilReject(view, idx)
		if p < k || !IsFalsePositive(view, idx) {
			totalRandom += p
			negatives++
		}
	}
	avgRandom := float64(totalRandom) / float64(negatives)

	// Crafted expensive queries always cost k probes.
	adv := NewQueryOnly(view, urlgen.New(3))
	crafted, err := adv.ExpensiveQueries(50, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range crafted {
		idx = view.Indexes(idx[:0], item)
		if p := probesUntilReject(view, idx); p != k {
			t.Fatalf("crafted query probed %d bits, want %d", p, k)
		}
	}
	if avgRandom > float64(k)/2 {
		t.Errorf("random negatives probe %.2f bits on average — no gap to exploit", avgRandom)
	}
	t.Logf("random negative: %.2f probes; crafted: %d probes (%.1fx worst-case amplification)",
		avgRandom, k, float64(k)/avgRandom)
}

// Saturation's end state is the LOAF failure mode from §4: an all-ones
// filter answers "present" for everything — the trivial whitelist-bypass
// the paper opens the adversary-model section with.
func TestSaturatedFilterAcceptsEverything(t *testing.T) {
	d, err := hashes.NewDigester(hashes.SHA256, nil)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := hashes.NewSalted(d, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBloom(fam)
	for i := 0; i < b.Bits().Words(); i++ {
		b.Bits().SetWord(i, ^uint64(0))
	}
	gen := urlgen.New(4)
	for i := 0; i < 1000; i++ {
		if !b.Test(gen.Next()) {
			t.Fatal("saturated filter rejected an item")
		}
	}
	if b.EstimatedFPR() != 1 {
		t.Errorf("saturated FPR = %v", b.EstimatedFPR())
	}
}
