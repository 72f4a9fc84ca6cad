package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"evilbloom/internal/bitset"
	"evilbloom/internal/hashes"
)

// Filter is the set-membership interface shared by every variant.
type Filter interface {
	// Add inserts item into the filter.
	Add(item []byte)
	// Test reports whether item may be in the filter (false positives are
	// possible; false negatives are not, except for damaged counting filters).
	Test(item []byte) bool
	// Count returns the number of insertions performed.
	Count() uint64
}

// bitFilter is what the classic and the blocked filter share: an m-bit
// vector, the index family and the insertion count, with every method that
// does not depend on where an item's bits go — statistics, the adversary's
// view and the state encoding.
type bitFilter struct {
	bits    *bitset.BitSet
	fam     hashes.IndexFamily
	n       uint64
	scratch []uint64
}

func newBitFilter(fam hashes.IndexFamily) bitFilter {
	return bitFilter{bits: bitset.New(fam.M()), fam: fam, scratch: make([]uint64, 0, fam.K())}
}

// Count implements Filter.
func (b *bitFilter) Count() uint64 { return b.n }

// M returns the filter size in bits.
func (b *bitFilter) M() uint64 { return b.fam.M() }

// K returns the number of hash functions.
func (b *bitFilter) K() int { return b.fam.K() }

// Weight returns the Hamming weight w_H(z).
func (b *bitFilter) Weight() uint64 { return b.bits.Weight() }

// Fill returns W/m.
func (b *bitFilter) Fill() float64 { return b.bits.Fill() }

// EstimatedFPR returns (W/m)^k, the probability that a uniformly random
// query is a false positive given the current bit pattern. It slightly
// underestimates a blocked filter's true rate (bits cluster within blocks),
// but keeps the stats comparable across variants.
func (b *bitFilter) EstimatedFPR() float64 {
	return FPForgeryProbability(b.M(), b.K(), b.Weight())
}

// Occupied reports whether bit i is set — the adversary's per-position view
// of a known filter (§4). For a blocked filter i is a storage position:
// apply BlockedPosition to map an index-family output.
func (b *bitFilter) Occupied(i uint64) bool { return b.bits.Test(i) }

// OccupancyBits returns a private copy of the occupancy pattern — the bit
// vector a Squid-style cache digest of this filter consists of. For a bit
// vector filter the digest IS the filter, so this is simply a clone of the
// bits (a party evaluating a blocked filter's digest applies
// BlockedPosition, as the filter does); the counting variant projects its
// counters down to the same shape.
func (b *bitFilter) OccupancyBits() *bitset.BitSet { return b.bits.Clone() }

// Family returns the index family (public knowledge in the threat model:
// "the implementation of the Bloom filter is public and known").
func (b *bitFilter) Family() hashes.IndexFamily { return b.fam }

// Reset clears all bits and the insertion count.
func (b *bitFilter) Reset() {
	b.bits.Reset()
	b.n = 0
}

// AppendBinary appends the filter state (insertion count, then the bit
// vector in bitset.AppendBinary's form) to dst; a blocked filter's is
// framed the same, the enclosing snapshot envelope carries the variant.
// Like the Counting snapshot, the index family is NOT serialized — a
// snapshot is only meaningful to a party that already knows the filter's
// public geometry (and, for keyed families, its secret).
func (b *bitFilter) AppendBinary(dst []byte) []byte {
	return b.bits.AppendBinary(binary.LittleEndian.AppendUint64(dst, b.n))
}

// Load overwrites the filter state in place from r, which must hold what
// AppendBinary writes for a filter of the same m, reading through buf
// (≥ 8 bytes); see bitset.Load. On error the filter is half-written.
func (b *bitFilter) Load(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint64(buf)
	if err := b.bits.Load(r, buf); err != nil {
		return err
	}
	b.n = n
	return nil
}

// Bloom is the classic filter of §3: an m-bit vector and k hash functions
// supplied by an IndexFamily. Not safe for concurrent use; wrap in Synced.
type Bloom struct {
	bitFilter
}

var _ Filter = (*Bloom)(nil)

// NewBloom builds a filter over the family's (m, k) geometry.
func NewBloom(fam hashes.IndexFamily) *Bloom {
	return &Bloom{newBitFilter(fam)}
}

// NewBloomOptimal sizes a classic filter for capacity items at target
// false-positive probability f (eq 2–3) using salted digests of alg.
func NewBloomOptimal(capacity uint64, f float64, alg hashes.Algorithm, key []byte) (*Bloom, error) {
	m := OptimalM(capacity, f)
	if m == 0 {
		return nil, fmt.Errorf("core: invalid capacity %d or false-positive target %v", capacity, f)
	}
	k := KForFPR(f)
	d, err := hashes.NewDigester(alg, key)
	if err != nil {
		return nil, err
	}
	fam, err := hashes.NewSalted(d, k, m)
	if err != nil {
		return nil, err
	}
	return NewBloom(fam), nil
}

// Add implements Filter.
func (b *Bloom) Add(item []byte) {
	b.scratch = b.fam.Indexes(b.scratch[:0], item)
	b.AddIndexesAtomic(b.scratch)
}

// AddIndexesAtomic inserts a pre-computed index set and returns the number
// of previously-unset bits it set. Chosen-insertion adversaries drive the
// filter through this to account for exactly which bits their forged items
// touch. Writers are serialized by the caller; bits are published with
// atomic stores, so TestIndexesAtomic readers may run with no lock at all.
// The insertion count is not read on that lock-free path, so it stays a
// plain increment under the writer's lock.
func (b *Bloom) AddIndexesAtomic(idx []uint64) int {
	fresh := 0
	for _, i := range idx {
		if b.bits.SetAtomic(i) {
			fresh++
		}
	}
	b.n++
	return fresh
}

// AddProgressionAtomic is AddIndexesAtomic for the k indexes start, start +
// step, … mod m of hashes.Progression, set by bitset.SetProgression without
// materialising them; start < m and step ≤ m, or it panics. It returns the
// number of previously-unset bits. Unlike AddIndexesAtomic it counts only an
// add that set a bit: a store skips an add that would set none, so Count
// stays the number of adds that changed the filter.
func (b *Bloom) AddProgressionAtomic(start, step uint64) int {
	fresh := b.bits.SetProgression(start, step, b.fam.K())
	if fresh > 0 {
		b.n++
	}
	return fresh
}

// Test implements Filter.
func (b *Bloom) Test(item []byte) bool {
	b.scratch = b.fam.Indexes(b.scratch[:0], item)
	return b.TestIndexesAtomic(b.scratch)
}

// TestIndexesAtomic reports whether every index in idx is set, with atomic
// bit loads — callable with no lock held while a serialized writer mutates
// through the atomic paths.
func (b *Bloom) TestIndexesAtomic(idx []uint64) bool {
	for _, i := range idx {
		if !b.bits.TestAtomic(i) {
			return false
		}
	}
	return true
}

// Bits exposes a read-only snapshot view of the underlying bit vector. The
// query-only adversary of §4.2 is assumed to know it. Callers must not
// mutate filter state through it; use Clone for a private copy.
func (b *Bloom) Bits() *bitset.BitSet { return b.bits }

// Clone returns an independent deep copy sharing no state.
func (b *Bloom) Clone() *Bloom {
	c := &Bloom{newBitFilter(b.fam.Clone())}
	c.bits, c.n = b.bits.Clone(), b.n
	return c
}

// Synced wraps a Filter with a mutex for concurrent use.
type Synced struct {
	mu    sync.Mutex
	inner Filter
}

var _ Filter = (*Synced)(nil)

// NewSynced wraps inner. The wrapper owns inner afterwards.
func NewSynced(inner Filter) *Synced {
	return &Synced{inner: inner}
}

// Add implements Filter.
func (s *Synced) Add(item []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Add(item)
}

// Test implements Filter.
func (s *Synced) Test(item []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Test(item)
}

// Count implements Filter.
func (s *Synced) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Count()
}
