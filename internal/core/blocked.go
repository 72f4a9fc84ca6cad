package core

import (
	"fmt"

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
	bitFilter
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
	return &Blocked{newBitFilter(fam)}, nil
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

// Blocks returns the number of 512-bit blocks.
func (b *Blocked) Blocks() uint64 { return b.M() / BlockBits }
