package core

import (
	"encoding/binary"
	"fmt"

	"evilbloom/internal/bitset"
	"evilbloom/internal/hashes"
)

// BlockBits is the block size of the blocked Bloom filter: 512 bits = 64
// bytes, one cache line on every mainstream CPU.
const BlockBits = 512

// BlockedPosition maps probe index idx into the block selected by the item's
// first index: the block is first's, the in-block offset is idx's low bits.
// For j = 0 this is the identity (first selects both its block and its own
// offset), so a blocked filter and a plain one agree on the first probe.
// Every party evaluating a blocked filter's bit pattern — the filter itself,
// a restored snapshot, a peer holding its cache digest — must apply this
// same mapping, which is why it lives here rather than inside the filter.
func BlockedPosition(first, idx uint64) uint64 {
	return first&^(BlockBits-1) | idx&(BlockBits-1)
}

// Blocked is a register-blocked (cache-line-local) Bloom filter: the m-bit
// vector is split into 512-bit blocks, an item's first index selects one
// block, and all k probe bits land inside it. Where a classic filter costs
// up to k cache misses per operation, a blocked one costs exactly one — the
// construction of "Blocked Bloom Filters" (Putze–Sanders–Singler; see also
// "Blocked Bloom Filters with Choices" in PAPERS.md), traded against a
// slightly higher false-positive rate because the k bits are confined to
// 512 positions instead of m. Not safe for concurrent use on its own; the
// service layer serializes writers and uses the atomic read path.
type Blocked struct {
	bits    *bitset.BitSet
	fam     hashes.IndexFamily
	n       uint64
	scratch []uint64
}

var _ Filter = (*Blocked)(nil)

// NewBlocked builds a blocked filter over the family's (m, k) geometry. The
// size must be a positive multiple of BlockBits so every block is a whole
// cache line; callers (the service's config normalization) round up.
func NewBlocked(fam hashes.IndexFamily) (*Blocked, error) {
	m := fam.M()
	if m == 0 || m%BlockBits != 0 {
		return nil, fmt.Errorf("core: blocked filter size %d is not a positive multiple of %d", m, BlockBits)
	}
	return &Blocked{
		bits:    bitset.New(m),
		fam:     fam,
		scratch: make([]uint64, 0, fam.K()),
	}, nil
}

// Add implements Filter.
func (b *Blocked) Add(item []byte) {
	b.scratch = b.fam.Indexes(b.scratch[:0], item)
	b.AddIndexesAtomic(b.scratch)
}

// AddIndexesAtomic inserts a pre-computed index set, mapped into the first
// index's block, and returns the number of previously-unset bits it set;
// see Bloom.AddIndexesAtomic for the locking contract.
func (b *Blocked) AddIndexesAtomic(idx []uint64) int {
	fresh := 0
	for _, i := range idx {
		if b.bits.SetAtomic(BlockedPosition(idx[0], i)) {
			fresh++
		}
	}
	b.n++
	return fresh
}

// Test implements Filter.
func (b *Blocked) Test(item []byte) bool {
	b.scratch = b.fam.Indexes(b.scratch[:0], item)
	return b.TestIndexesAtomic(b.scratch)
}

// TestIndexesAtomic reports whether every block-mapped position of idx is
// set, with atomic bit loads — callable with no lock held while a serialized
// writer mutates through the atomic paths.
func (b *Blocked) TestIndexesAtomic(idx []uint64) bool {
	for _, i := range idx {
		if !b.bits.TestAtomic(BlockedPosition(idx[0], i)) {
			return false
		}
	}
	return true
}

// Count implements Filter.
func (b *Blocked) Count() uint64 { return b.n }

// M returns the filter size in bits.
func (b *Blocked) M() uint64 { return b.fam.M() }

// K returns the number of hash functions.
func (b *Blocked) K() int { return b.fam.K() }

// Blocks returns the number of 512-bit blocks.
func (b *Blocked) Blocks() uint64 { return b.M() / BlockBits }

// Weight returns the Hamming weight w_H(z).
func (b *Blocked) Weight() uint64 { return b.bits.Weight() }

// Fill returns W/m.
func (b *Blocked) Fill() float64 { return b.bits.Fill() }

// EstimatedFPR returns (W/m)^k — the same global-fill estimate the other
// variants report. It slightly underestimates a blocked filter's true rate
// (bits cluster within blocks), but keeps the stats comparable across
// variants; the designed-rate penalty of blocking is a property of the
// construction, not of one filter's state.
func (b *Blocked) EstimatedFPR() float64 {
	return FPForgeryProbability(b.M(), b.K(), b.Weight())
}

// Occupied reports whether raw bit i is set — the adversary's per-position
// view of the storage (§4). Note the argument is a storage position, not an
// index-family output; apply BlockedPosition to map the latter.
func (b *Blocked) Occupied(i uint64) bool { return b.bits.Test(i) }

// OccupancyBits returns a private copy of the occupancy pattern — for a
// blocked filter, like a plain one, the digest IS the bit vector. A party
// evaluating membership against it must apply BlockedPosition to each
// index-family output, exactly as the filter itself does.
func (b *Blocked) OccupancyBits() *bitset.BitSet { return b.bits.Clone() }

// Family returns the index family.
func (b *Blocked) Family() hashes.IndexFamily { return b.fam }

// MarshalBinary encodes the filter state (insertion count plus the bit
// vector) in exactly the Bloom framing — the geometry field distinguishes
// nothing; the enclosing snapshot envelope carries the variant.
func (b *Blocked) MarshalBinary() ([]byte, error) {
	bits, err := b.bits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8, 8+len(bits))
	binary.LittleEndian.PutUint64(out, b.n)
	return append(out, bits...), nil
}

// UnmarshalBinary restores state written by MarshalBinary into a filter that
// must already have the same geometry (m). Like Bloom, the bit vector is
// overwritten in place with atomic stores so lock-free readers survive a
// restore.
func (b *Blocked) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("core: truncated blocked snapshot: %d bytes", len(data))
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
