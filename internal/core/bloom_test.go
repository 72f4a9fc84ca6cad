package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"evilbloom/internal/hashes"
)

func newTestBloom(t *testing.T, k int, m uint64) *Bloom {
	t.Helper()
	d, err := hashes.NewDigester(hashes.SHA256, nil)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := hashes.NewSalted(d, k, m)
	if err != nil {
		t.Fatal(err)
	}
	return NewBloom(fam)
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := newTestBloom(t, 4, 3200)
	items := make([][]byte, 300)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("http://site%d.example.com/page", i))
		b.Add(items[i])
	}
	for _, it := range items {
		if !b.Test(it) {
			t.Fatalf("false negative for %q", it)
		}
	}
	if b.Count() != 300 {
		t.Errorf("Count = %d, want 300", b.Count())
	}
}

func TestBloomEmptyRejectsEverything(t *testing.T) {
	b := newTestBloom(t, 4, 3200)
	for i := 0; i < 100; i++ {
		if b.Test([]byte(fmt.Sprintf("probe-%d", i))) {
			t.Fatal("empty filter reported membership")
		}
	}
	if b.EstimatedFPR() != 0 {
		t.Errorf("empty filter FPR = %v", b.EstimatedFPR())
	}
}

// The empirical false-positive rate of a filter at its design load must be
// close to eq (1) — the average-case baseline the paper's attacks beat.
func TestBloomEmpiricalFPRMatchesEquation1(t *testing.T) {
	const m, n, k = 3200, 600, 4
	b := newTestBloom(t, k, m)
	for i := 0; i < n; i++ {
		b.Add([]byte(fmt.Sprintf("member-%d", i)))
	}
	const probes = 200000
	fp := 0
	for i := 0; i < probes; i++ {
		if b.Test([]byte(fmt.Sprintf("nonmember-%d", i))) {
			fp++
		}
	}
	got := float64(fp) / probes
	want := FPR(m, n, k)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("empirical FPR = %.4f, eq (1) predicts %.4f", got, want)
	}
}

func TestBloomWeightTracksExpectation(t *testing.T) {
	const m, n, k = 3200, 600, 4
	b := newTestBloom(t, k, m)
	for i := 0; i < n; i++ {
		b.Add([]byte(fmt.Sprintf("member-%d", i)))
	}
	want := ExpectedWeight(m, n, k)
	got := float64(b.Weight())
	// eq (5): the weight is extremely concentrated; 5% slack is generous.
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("weight = %v, expectation %v", got, want)
	}
}

func TestNewBloomOptimal(t *testing.T) {
	b, err := NewBloomOptimal(600, 0.077, hashes.SHA256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.K() != 4 {
		t.Errorf("K = %d, want 4", b.K())
	}
	if b.M() < 3100 || b.M() > 3300 {
		t.Errorf("M = %d, want ≈3200", b.M())
	}
	if _, err := NewBloomOptimal(0, 0.077, hashes.SHA256, nil); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewBloomOptimal(10, 0.077, hashes.HMACSHA1, nil); err == nil {
		t.Error("keyed algorithm without key accepted")
	}
}

func TestBloomAddIndexesFreshCount(t *testing.T) {
	b := newTestBloom(t, 4, 100)
	if fresh := b.AddIndexesAtomic([]uint64{1, 2, 3, 4}); fresh != 4 {
		t.Errorf("fresh = %d, want 4", fresh)
	}
	if fresh := b.AddIndexesAtomic([]uint64{3, 4, 5, 6}); fresh != 2 {
		t.Errorf("fresh = %d, want 2", fresh)
	}
	if !b.TestIndexesAtomic([]uint64{1, 2, 3, 4, 5, 6}) {
		t.Error("inserted indexes not set")
	}
	if b.TestIndexesAtomic([]uint64{1, 2, 7}) {
		t.Error("unset index reported set")
	}
	if b.Weight() != 6 {
		t.Errorf("Weight = %d, want 6", b.Weight())
	}
}

// AddProgressionAtomic sets hashes.Progression's bits, answers how many
// were clear, and counts only an add that set one.
func TestBloomAddProgressionCountsFreshAdds(t *testing.T) {
	b := newTestBloom(t, 4, 100)
	if fresh := b.AddProgressionAtomic(98, 3); fresh != 4 { // 98, 1, 4, 7
		t.Errorf("fresh = %d, want 4", fresh)
	}
	if fresh := b.AddProgressionAtomic(4, 3); fresh != 2 { // 4, 7, 10, 13
		t.Errorf("fresh = %d, want 2", fresh)
	}
	if fresh := b.AddProgressionAtomic(1, 3); fresh != 0 { // 1, 4, 7, 10
		t.Errorf("fresh = %d, want 0", fresh)
	}
	if !b.TestIndexesAtomic(hashes.Progression(nil, 98, 3, 100, 6)) || b.Weight() != 6 {
		t.Errorf("bits %v, want 98, 1, 4, 7, 10, 13", b.Bits().Support())
	}
	if b.Count() != 2 {
		t.Errorf("Count = %d, want 2: the add that set nothing counts nothing", b.Count())
	}
}

func TestBloomCloneAndReset(t *testing.T) {
	b := newTestBloom(t, 4, 3200)
	b.Add([]byte("x"))
	c := b.Clone()
	c.Add([]byte("y"))
	if b.Test([]byte("y")) {
		t.Error("clone mutation leaked into original")
	}
	if !c.Test([]byte("x")) {
		t.Error("clone lost original contents")
	}
	b.Reset()
	if b.Weight() != 0 || b.Count() != 0 || b.Test([]byte("x")) {
		t.Error("Reset left state behind")
	}
}

// Property: anything added is always found (no false negatives), for every
// index family type.
func TestNoFalseNegativesProperty(t *testing.T) {
	d, err := hashes.NewDigester(hashes.SHA512, nil)
	if err != nil {
		t.Fatal(err)
	}
	salted, err := hashes.NewSalted(d.Clone(), 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	recycling, err := hashes.NewRecycling(d.Clone(), 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	double, err := hashes.NewDoubleHashing(5, 4096, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []hashes.IndexFamily{salted, recycling, double} {
		b := NewBloom(fam)
		f := func(items [][]byte) bool {
			for _, it := range items {
				b.Add(it)
			}
			for _, it := range items {
				if !b.Test(it) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	}
}

func TestSyncedConcurrentUse(t *testing.T) {
	s := NewSynced(newTestBloom(t, 4, 1<<16))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				item := []byte(fmt.Sprintf("g%d-i%d", g, i))
				s.Add(item)
				if !s.Test(item) {
					t.Errorf("false negative under concurrency for %s", item)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Count() != 8*500 {
		t.Errorf("Count = %d, want 4000", s.Count())
	}
}

// A keyed filter (HMAC) behaves identically for honest use.
func TestKeyedBloomHonestBehaviour(t *testing.T) {
	b, err := NewBloomOptimal(600, 0.077, hashes.HMACSHA256, []byte("server-secret"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		b.Add([]byte(fmt.Sprintf("item-%d", i)))
	}
	for i := 0; i < 600; i++ {
		if !b.Test([]byte(fmt.Sprintf("item-%d", i))) {
			t.Fatal("keyed filter false negative")
		}
	}
	fp := 0
	for i := 0; i < 50000; i++ {
		if b.Test([]byte(fmt.Sprintf("probe-%d", i))) {
			fp++
		}
	}
	got := float64(fp) / 50000
	if math.Abs(got-0.077) > 0.02 {
		t.Errorf("keyed empirical FPR = %v, want ≈0.077", got)
	}
}

func BenchmarkBloomAdd(b *testing.B) {
	d, _ := hashes.NewDigester(hashes.SHA256, nil)
	fam, _ := hashes.NewSalted(d, 7, 1<<24)
	bl := NewBloom(fam)
	item := []byte("http://example.com/some/long/path/page.html")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl.Add(item)
	}
}

func BenchmarkBloomTest(b *testing.B) {
	d, _ := hashes.NewDigester(hashes.SHA256, nil)
	fam, _ := hashes.NewSalted(d, 7, 1<<24)
	bl := NewBloom(fam)
	bl.Add([]byte("member"))
	item := []byte("http://example.com/some/long/path/page.html")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Test(item)
	}
}

// Snapshots round-trip: a restored filter answers identically and
// re-serializes to the same bytes; mismatched geometry is refused.
func TestBloomSnapshotRoundTrip(t *testing.T) {
	a := newTestBloom(t, 4, 3200)
	items := make([][]byte, 200)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("http://snap%d.example.com/", i))
		a.Add(items[i])
	}
	blob := a.AppendBinary(nil)
	b := newTestBloom(t, 4, 3200)
	if err := loadBlob(b, blob); err != nil {
		t.Fatal(err)
	}
	if b.Count() != a.Count() || b.Weight() != a.Weight() {
		t.Errorf("restored count=%d weight=%d, want %d and %d", b.Count(), b.Weight(), a.Count(), a.Weight())
	}
	for _, it := range items {
		if !b.Test(it) {
			t.Fatalf("restored filter lost %q", it)
		}
	}
	again := b.AppendBinary(nil)
	if string(again) != string(blob) {
		t.Error("restored filter re-serializes differently")
	}
	// Geometry mismatch and truncation are refused without mutating state.
	small := newTestBloom(t, 4, 64)
	if err := loadBlob(small, blob); err == nil {
		t.Error("snapshot restored into a filter of different m")
	}
	if err := loadBlob(b, blob[:5]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if b.Count() != a.Count() {
		t.Error("failed restore mutated the filter")
	}
}

// loadBlob restores f from an in-memory blob through its streaming Load.
func loadBlob(f interface{ Load(io.Reader, []byte) error }, blob []byte) error {
	return f.Load(bytes.NewReader(blob), make([]byte, 64))
}
