package core

import (
	"bytes"
	"testing"

	"evilbloom/internal/bitset"
	"evilbloom/internal/hashes"
	"evilbloom/internal/urlgen"
)

func newBlockedFilter(t *testing.T, k int, m uint64) *Blocked {
	t.Helper()
	fam, err := hashes.NewDoubleHashing(k, m, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBlocked(fam)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBlockedRejectsBadGeometry(t *testing.T) {
	for _, m := range []uint64{1, 100, BlockBits - 1, BlockBits + 1, 3 * BlockBits / 2} {
		fam, err := hashes.NewDoubleHashing(4, m, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewBlocked(fam); err == nil {
			t.Errorf("m=%d: expected a geometry error, got none", m)
		}
	}
	if b := newBlockedFilter(t, 4, BlockBits); b.Blocks() != 1 {
		t.Errorf("m=%d: %d blocks, want 1", uint64(BlockBits), b.Blocks())
	}
}

func TestBlockedPositionConfinesToOneBlock(t *testing.T) {
	for _, first := range []uint64{0, 1, 511, 512, 513, 4095, 70000} {
		block := first / BlockBits
		for _, idx := range []uint64{0, 5, 511, 512, 999999} {
			p := BlockedPosition(first, idx)
			if p/BlockBits != block {
				t.Fatalf("BlockedPosition(%d, %d) = %d: outside block %d", first, idx, p, block)
			}
			if idx == first && p != first {
				t.Fatalf("BlockedPosition(%d, %d) = %d, want identity on the first index", first, idx, p)
			}
		}
		if p := BlockedPosition(first, first); p != first {
			t.Fatalf("BlockedPosition(%d, %d) = %d, want identity", first, first, p)
		}
	}
}

func TestBlockedAddTestRoundTrip(t *testing.T) {
	b := newBlockedFilter(t, 4, 16*BlockBits)
	gen := urlgen.New(3)
	items := make([][]byte, 300)
	for i := range items {
		items[i] = gen.Next()
		b.Add(items[i])
	}
	if b.Count() != uint64(len(items)) {
		t.Fatalf("count %d, want %d", b.Count(), len(items))
	}
	for _, it := range items {
		if !b.Test(it) {
			t.Fatalf("added item %q tests negative", it)
		}
	}
	// Every set bit must live inside some item's first-index block — probe
	// the raw storage: set bits may only appear in blocks that received an
	// item. Collect the touched blocks and check the complement is empty.
	touched := map[uint64]bool{}
	scratch := make([]uint64, 0, b.K())
	for _, it := range items {
		idx := b.Family().Indexes(scratch[:0], it)
		touched[idx[0]/BlockBits] = true
	}
	for i := uint64(0); i < b.M(); i++ {
		if b.Occupied(i) && !touched[i/BlockBits] {
			t.Fatalf("bit %d set in untouched block %d", i, i/BlockBits)
		}
	}
}

// The atomic write and read paths must place exactly the bits a plain
// bit vector would get from BlockedPosition applied to every index.
func TestBlockedAtomicPathsMatchPlain(t *testing.T) {
	b := newBlockedFilter(t, 5, 8*BlockBits)
	plain := bitset.New(b.M())
	gen := urlgen.New(9)
	scratch := make([]uint64, 0, b.K())
	for i := 0; i < 200; i++ {
		it := gen.Next()
		idx := b.Family().Indexes(scratch[:0], it)
		want := 0
		for _, j := range idx {
			if plain.Set(BlockedPosition(idx[0], j)) {
				want++
			}
		}
		if got := b.AddIndexesAtomic(idx); got != want {
			t.Fatalf("AddIndexesAtomic fresh=%d, plain bit vector fresh=%d for %q", got, want, it)
		}
		if !b.TestIndexesAtomic(idx) {
			t.Fatalf("TestIndexesAtomic misses just-added %q", it)
		}
	}
	if got := b.OccupancyBits(); !got.Equal(plain) {
		t.Fatalf("bits diverge: atomic weight %d, plain weight %d", got.Weight(), plain.Weight())
	}
}

func TestBlockedSnapshotRoundTrip(t *testing.T) {
	a := newBlockedFilter(t, 4, 16*BlockBits)
	gen := urlgen.New(5)
	items := make([][]byte, 400)
	for i := range items {
		items[i] = gen.Next()
		a.Add(items[i])
	}
	blob := a.AppendBinary(nil)
	b := newBlockedFilter(t, 4, 16*BlockBits)
	if err := loadBlob(b, blob); err != nil {
		t.Fatal(err)
	}
	again := b.AppendBinary(nil)
	if !bytes.Equal(blob, again) {
		t.Error("restored filter re-serializes differently")
	}
	if a.Count() != b.Count() || a.Weight() != b.Weight() {
		t.Errorf("state diverges: count %d/%d, weight %d/%d", a.Count(), b.Count(), a.Weight(), b.Weight())
	}
	for _, it := range items {
		if !b.Test(it) {
			t.Fatalf("restored filter lost %q", it)
		}
	}

	// Geometry mismatch must be refused, and refusal must leave the target
	// untouched (restore validates before it stores).
	other := newBlockedFilter(t, 4, 8*BlockBits)
	other.Add([]byte("sentinel"))
	w := other.Weight()
	if err := loadBlob(other, blob); err == nil {
		t.Fatal("geometry-mismatched snapshot accepted")
	}
	if other.Weight() != w || !other.Test([]byte("sentinel")) {
		t.Fatal("failed restore disturbed the target filter")
	}
	if err := loadBlob(other, blob[:4]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestBlockedOccupancyBitsIsPrivateCopy(t *testing.T) {
	b := newBlockedFilter(t, 4, 4*BlockBits)
	b.Add([]byte("x"))
	bits := b.OccupancyBits()
	if bits.Weight() != b.Weight() {
		t.Fatalf("occupancy weight %d, filter weight %d", bits.Weight(), b.Weight())
	}
	for i := 0; i < bits.Words(); i++ {
		bits.SetWord(i, ^uint64(0))
	}
	if b.Weight() == b.M() {
		t.Fatal("mutating the occupancy copy leaked into the filter")
	}
}
