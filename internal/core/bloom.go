package core

import (
	"encoding/binary"
	"fmt"
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

// Bloom is the classic filter of §3: an m-bit vector and k hash functions
// supplied by an IndexFamily. Not safe for concurrent use; wrap in Synced.
type Bloom struct {
	bits    *bitset.BitSet
	fam     hashes.IndexFamily
	n       uint64
	scratch []uint64
}

var _ Filter = (*Bloom)(nil)

// NewBloom builds a filter over the family's (m, k) geometry.
func NewBloom(fam hashes.IndexFamily) *Bloom {
	return &Bloom{
		bits:    bitset.New(fam.M()),
		fam:     fam,
		scratch: make([]uint64, 0, fam.K()),
	}
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
	b.AddIndexes(b.scratch)
}

// AddIndexes inserts a pre-computed index set and returns the number of
// previously-unset bits it set. Chosen-insertion adversaries drive the
// filter through this to account for exactly which bits their forged items
// touch.
func (b *Bloom) AddIndexes(idx []uint64) int {
	fresh := 0
	for _, i := range idx {
		if b.bits.Set(i) {
			fresh++
		}
	}
	b.n++
	return fresh
}

// AddIndexesAtomic is AddIndexes with atomic bit stores: for callers that
// serialize writers under a lock but serve TestIndexesAtomic readers with no
// lock at all. The insertion count is not read on that lock-free path, so it
// stays a plain increment under the writer's lock.
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

// Test implements Filter.
func (b *Bloom) Test(item []byte) bool {
	b.scratch = b.fam.Indexes(b.scratch[:0], item)
	return b.TestIndexes(b.scratch)
}

// TestIndexes reports whether every index in idx is set.
func (b *Bloom) TestIndexes(idx []uint64) bool {
	for _, i := range idx {
		if !b.bits.Test(i) {
			return false
		}
	}
	return true
}

// TestIndexesAtomic is TestIndexes with atomic bit loads — callable with no
// lock held while a serialized writer mutates through the atomic paths.
func (b *Bloom) TestIndexesAtomic(idx []uint64) bool {
	for _, i := range idx {
		if !b.bits.TestAtomic(i) {
			return false
		}
	}
	return true
}

// Count implements Filter.
func (b *Bloom) Count() uint64 { return b.n }

// M returns the filter size in bits.
func (b *Bloom) M() uint64 { return b.fam.M() }

// K returns the number of hash functions.
func (b *Bloom) K() int { return b.fam.K() }

// Weight returns the Hamming weight w_H(z).
func (b *Bloom) Weight() uint64 { return b.bits.Weight() }

// Fill returns W/m.
func (b *Bloom) Fill() float64 { return b.bits.Fill() }

// EstimatedFPR returns (W/m)^k, the probability that a uniformly random
// query is a false positive given the current bit pattern.
func (b *Bloom) EstimatedFPR() float64 {
	return FPForgeryProbability(b.M(), b.K(), b.Weight())
}

// Occupied reports whether bit i is set — the adversary's per-position view
// of a known filter (§4).
func (b *Bloom) Occupied(i uint64) bool { return b.bits.Test(i) }

// Bits exposes a read-only snapshot view of the underlying bit vector. The
// query-only adversary of §4.2 is assumed to know it. Callers must not
// mutate filter state through it; use Clone for a private copy.
func (b *Bloom) Bits() *bitset.BitSet { return b.bits }

// OccupancyBits returns a private copy of the occupancy pattern — the bit
// vector a Squid-style cache digest of this filter consists of. For a plain
// Bloom filter the digest IS the filter, so this is simply a clone of the
// bits; the counting variant projects its counters down to the same shape.
func (b *Bloom) OccupancyBits() *bitset.BitSet { return b.bits.Clone() }

// Family returns the index family (public knowledge in the threat model:
// "the implementation of the Bloom filter is public and known").
func (b *Bloom) Family() hashes.IndexFamily { return b.fam }

// Clone returns an independent deep copy sharing no state.
func (b *Bloom) Clone() *Bloom {
	return &Bloom{
		bits:    b.bits.Clone(),
		fam:     b.fam.Clone(),
		n:       b.n,
		scratch: make([]uint64, 0, b.fam.K()),
	}
}

// Reset clears all bits and the insertion count.
func (b *Bloom) Reset() {
	b.bits.Reset()
	b.n = 0
}

// MarshalBinary encodes the filter state (insertion count plus the bit
// vector). Like the Counting snapshot, the index family is NOT serialized —
// a snapshot is only meaningful to a party that already knows the filter's
// public geometry (and, for keyed families, its secret).
func (b *Bloom) MarshalBinary() ([]byte, error) {
	bits, err := b.bits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8, 8+len(bits))
	binary.LittleEndian.PutUint64(out, b.n)
	return append(out, bits...), nil
}

// UnmarshalBinary restores state written by MarshalBinary into a filter that
// must already have the same geometry (m). The filter is only modified on
// success. The existing bit vector is overwritten in place with atomic word
// stores rather than swapped for a new allocation: lock-free readers hold a
// reference to the vector, so its identity must survive a restore.
func (b *Bloom) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("core: truncated bloom snapshot: %d bytes", len(data))
	}
	bits := bitset.New(0)
	if err := bits.UnmarshalBinary(data[8:]); err != nil {
		return err
	}
	if bits.Size() != b.fam.M() {
		return fmt.Errorf("core: snapshot geometry (m=%d) does not match filter (m=%d)", bits.Size(), b.fam.M())
	}
	b.n = binary.LittleEndian.Uint64(data)
	return b.bits.StoreFrom(bits)
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
