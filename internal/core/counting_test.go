package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"evilbloom/internal/hashes"
)

func newTestCounting(t *testing.T, k int, m uint64, width int, policy OverflowPolicy) *Counting {
	t.Helper()
	fam, err := hashes.NewDoubleHashing(k, m, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCounting(fam, width, policy)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCountingAddTestRemove(t *testing.T) {
	c := newTestCounting(t, 4, 4096, 4, Wrap)
	items := make([][]byte, 100)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("url-%d", i))
		c.Add(items[i])
	}
	for _, it := range items {
		if !c.Test(it) {
			t.Fatalf("false negative for %q", it)
		}
	}
	// Removing an inserted item makes it disappear (no other collisions at
	// this load, overwhelmingly likely with fixed seed).
	if err := c.Remove(items[0]); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if c.Test(items[0]) && c.Counter(0) == 0 {
		t.Log("item still visible after removal due to collisions (acceptable)")
	}
	if c.Count() != 99 {
		t.Errorf("Count = %d, want 99", c.Count())
	}
}

func TestCountingRemoveAbsentErrors(t *testing.T) {
	c := newTestCounting(t, 4, 4096, 4, Wrap)
	if err := c.Remove([]byte("never inserted")); err == nil {
		t.Error("removing an absent item succeeded")
	}
}

func TestCountingValidation(t *testing.T) {
	fam, err := hashes.NewDoubleHashing(4, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCounting(fam, 0, Wrap); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := NewCounting(fam, 17, Wrap); err == nil {
		t.Error("width 17 accepted")
	}
	if _, err := NewCounting(fam, 4, OverflowPolicy(0)); err == nil {
		t.Error("invalid policy accepted")
	}
}

// §6.2: 4-bit counters wrap after 16 increments, erasing membership — the
// overflow attack's mechanism.
func TestCountingOverflowWrap(t *testing.T) {
	c := newTestCounting(t, 2, 64, 4, Wrap)
	item := []byte("hot item")
	for i := 0; i < 15; i++ {
		c.Add(item)
	}
	if !c.Test(item) {
		t.Fatal("item vanished before overflow")
	}
	if c.Overflows() != 0 {
		t.Fatalf("premature overflow count %d", c.Overflows())
	}
	c.Add(item) // 16th increment wraps both counters to 0
	if c.Test(item) {
		t.Error("wrapped counters still report membership")
	}
	if c.Overflows() != 2 {
		t.Errorf("Overflows = %d, want 2", c.Overflows())
	}
}

func TestCountingOverflowSaturate(t *testing.T) {
	c := newTestCounting(t, 2, 64, 4, Saturate)
	item := []byte("hot item")
	for i := 0; i < 40; i++ {
		c.Add(item)
	}
	if !c.Test(item) {
		t.Error("saturating counters lost membership")
	}
	if c.Overflows() == 0 {
		t.Error("saturation events not counted")
	}
	// Pinned counters are not decremented: removing repeatedly never drives
	// them to zero.
	for i := 0; i < 40; i++ {
		if err := c.Remove(item); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	if !c.Test(item) {
		t.Error("pinned counters were decremented to zero")
	}
}

// The deletion adversary of §4.3: removing a crafted colliding item creates
// a false negative for the victim.
func TestCountingDeletionCreatesFalseNegative(t *testing.T) {
	c := newTestCounting(t, 4, 4096, 4, Wrap)
	victim := []byte("http://honest.example.com/")
	c.Add(victim)
	victimIdx := c.Family().Clone().Indexes(nil, victim)
	// The adversary "removes" an item with the same index set (a Bloom
	// second pre-image) without it ever being inserted.
	zeroed, err := c.RemoveIndexesAtomic(victimIdx)
	if err != nil {
		t.Fatalf("RemoveIndexesAtomic: %v", err)
	}
	if zeroed != len(victimIdx) {
		t.Errorf("zeroed %d counters, want %d (victim stood alone)", zeroed, len(victimIdx))
	}
	if c.Test(victim) {
		t.Error("victim still present after adversarial deletion")
	}
}

// A snapshot must round-trip counters, counts and the overflow tally into a
// same-geometry filter, and refuse a mismatched one.
func TestCountingSnapshotRoundTrip(t *testing.T) {
	c := newTestCounting(t, 4, 512, 4, Saturate)
	gen := func(i int) []byte { return []byte(fmt.Sprintf("http://a.example/%d", i)) }
	for i := 0; i < 300; i++ {
		c.Add(gen(i))
	}
	blob := c.AppendBinary(nil)
	restored := newTestCounting(t, 4, 512, 4, Wrap) // policy comes from the snapshot
	if err := loadBlob(restored, blob); err != nil {
		t.Fatal(err)
	}
	if restored.Count() != c.Count() || restored.Weight() != c.Weight() || restored.Overflows() != c.Overflows() {
		t.Errorf("restored (n=%d w=%d o=%d) != original (n=%d w=%d o=%d)",
			restored.Count(), restored.Weight(), restored.Overflows(), c.Count(), c.Weight(), c.Overflows())
	}
	for i := 0; i < 300; i++ {
		if !restored.Test(gen(i)) {
			t.Fatalf("item %d lost through the snapshot", i)
		}
	}
	wrongGeometry := newTestCounting(t, 4, 512, 8, Wrap)
	if err := loadBlob(wrongGeometry, blob); err == nil {
		t.Error("snapshot accepted into a filter with a different counter width")
	}
	if err := loadBlob(restored, blob[:10]); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestCountingWeightAndFPR(t *testing.T) {
	c := newTestCounting(t, 4, 4096, 4, Wrap)
	if c.Weight() != 0 || c.EstimatedFPR() != 0 {
		t.Error("fresh filter not empty")
	}
	c.AddIndexesAtomic([]uint64{1, 2, 3, 4})
	if c.Weight() != 4 {
		t.Errorf("Weight = %d, want 4", c.Weight())
	}
	if c.Fill() != 4.0/4096 {
		t.Errorf("Fill = %v", c.Fill())
	}
	if c.CounterMax() != 15 {
		t.Errorf("CounterMax = %d, want 15", c.CounterMax())
	}
}

func TestCountingAddIndexesReturns(t *testing.T) {
	c := newTestCounting(t, 4, 64, 4, Wrap)
	fresh, over := c.AddIndexesAtomic([]uint64{1, 2, 3})
	if fresh != 3 || over != 0 {
		t.Errorf("first insert: fresh=%d over=%d", fresh, over)
	}
	fresh, over = c.AddIndexesAtomic([]uint64{3, 4, 5})
	if fresh != 2 || over != 0 {
		t.Errorf("second insert: fresh=%d over=%d", fresh, over)
	}
	for i := 0; i < 14; i++ {
		c.AddIndexesAtomic([]uint64{1})
	}
	_, over = c.AddIndexesAtomic([]uint64{1}) // 16th increment of counter 1
	if over != 1 {
		t.Errorf("overflow not reported: over=%d", over)
	}
}

// Property: packed counters at every width behave like a plain uint array,
// and the snapshot carries them in the contiguous packing — checked against
// contiguousStream, an encoder of the reference array written bit by bit —
// from which Load rebuilds the same counters over whatever they held.
func TestPackedCountersProperty(t *testing.T) {
	const m = 257 // prime: at most widths the last word is partly filled
	for width := 1; width <= 16; width++ {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			f := func(ops []uint16) bool {
				c := newTestCounting(t, 3, m, width, Wrap)
				ref := make([]uint64, m)
				maxVal := uint64(1)<<uint(width) - 1
				for _, op := range ops {
					i := uint64(op) % m
					v := uint64(op>>8) & maxVal
					c.counters.setAtomic(i, v)
					ref[i] = v
				}
				for i := uint64(0); i < m; i++ {
					if c.counters.get(i) != ref[i] {
						return false
					}
				}
				blob := c.AppendBinary(nil)
				if !bytes.Equal(blob[countingSnapshotHeader:], contiguousStream(ref, width)) {
					return false
				}
				// Load overwrites in place: a filter full of other counts
				// must come out holding exactly the blob's.
				restored := newTestCounting(t, 3, m, width, Wrap)
				for i := uint64(0); i < m; i++ {
					restored.counters.setAtomic(i, maxVal-ref[i])
				}
				if err := loadBlob(restored, blob); err != nil {
					return false
				}
				for i := uint64(0); i < m; i++ {
					if restored.Counter(i) != ref[i] {
						return false
					}
				}
				return bytes.Equal(restored.AppendBinary(nil), blob)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

// contiguousStream is the snapshot payload of ref at the given width: counter
// i at stream bits [i·width, (i+1)·width), little-endian 64-bit words.
func contiguousStream(ref []uint64, width int) []byte {
	w := uint64(width)
	out := make([]byte, 8*((uint64(len(ref))*w+63)/64))
	for i, v := range ref {
		for b := uint64(0); b < w; b++ {
			if v>>b&1 != 0 {
				bit := uint64(i)*w + b
				out[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return out
}

// Property: counting filters have no false negatives below overflow load.
func TestCountingNoFalseNegativesProperty(t *testing.T) {
	c := newTestCounting(t, 4, 1<<16, 8, Saturate)
	f := func(items [][]byte) bool {
		for _, it := range items {
			c.Add(it)
		}
		for _, it := range items {
			if !c.Test(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: add-then-remove returns the filter to its previous state for
// fresh items (counting filters are reversible below overflow).
func TestCountingAddRemoveInverseProperty(t *testing.T) {
	f := func(seed int64, items [][]byte) bool {
		fam, err := hashes.NewDoubleHashing(4, 8192, uint64(seed))
		if err != nil {
			return false
		}
		c, err := NewCounting(fam, 8, Wrap)
		if err != nil {
			return false
		}
		for _, it := range items {
			c.Add(it)
		}
		before := c.Weight()
		probe := []byte("probe item added then removed")
		c.Add(probe)
		if err := c.Remove(probe); err != nil {
			return false
		}
		return c.Weight() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// OccupancyBits must agree with Occupied at every position — including
// counter widths that leave slack at the top of each word and the zero-word
// skip path — since it is what a cache digest of the filter is built from.
func TestCountingOccupancyBits(t *testing.T) {
	for _, width := range []int{1, 3, 4, 5, 12, 16} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			// 517 positions: not word-aligned, several all-zero words.
			c := newTestCounting(t, 3, 517, width, Saturate)
			for i := 0; i < 40; i++ {
				c.Add([]byte(fmt.Sprintf("item-%d", i)))
			}
			bits := c.OccupancyBits()
			if bits.Size() != c.M() {
				t.Fatalf("occupancy size %d, want %d", bits.Size(), c.M())
			}
			for i := uint64(0); i < c.M(); i++ {
				if bits.Test(i) != c.Occupied(i) {
					t.Fatalf("width %d: position %d: occupancy bit %v, counter says %v",
						width, i, bits.Test(i), c.Occupied(i))
				}
			}
			if bits.Weight() != c.Weight() {
				t.Fatalf("occupancy weight %d, filter weight %d", bits.Weight(), c.Weight())
			}
			// An empty filter projects to all zeros via the skip path alone.
			empty := newTestCounting(t, 3, 517, width, Saturate).OccupancyBits()
			if empty.Weight() != 0 {
				t.Fatalf("empty filter occupancy weight %d", empty.Weight())
			}
		})
	}
}
