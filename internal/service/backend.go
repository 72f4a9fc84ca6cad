package service

import (
	"errors"
	"fmt"
	"io"

	"evilbloom/internal/bitset"
	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// Backend is the filter one shard serves. The Sharded layer owns index
// derivation (on pooled per-goroutine family clones, outside the shard lock)
// and hands each backend pre-computed index sets, so any index-addressable
// filter variant — plain bit vectors, counting arrays, or a future hardened
// construction — plugs in without touching the locking, routing, or stats
// machinery. The shard lock serializes every call but one: TestIndexes runs
// with no lock held, concurrently with a serialized writer.
type Backend interface {
	// AddIndexes inserts a pre-derived index set and returns the net change
	// in occupied positions, which keeps the shard's incremental weight
	// (and therefore O(shards) stats) exact. The change is negative when an
	// insertion erases occupancy — a wrap-policy counter rolling over to
	// zero, the §6.2 overflow attack's effect.
	AddIndexes(idx []uint64) int
	// TestIndexes reports whether every position in idx is occupied. It is
	// callable with no lock held: it only loads, with atomic word loads, and
	// every mutation publishes its words with atomic stores. A test racing a
	// mutation answers from some state the shard passed through.
	TestIndexes(idx []uint64) bool
	// Count returns the net number of insertions the shard applied. Bloom
	// and blocked shards are never handed an item whose positions are all
	// set, so theirs counts the adds that changed the filter — the adds a
	// BF.ADD answers 1 to. A counting shard applies every add, repeats
	// included, and subtracts accepted removals.
	Count() uint64
	// Weight returns the number of occupied positions (O(m); the shard layer
	// tracks weight incrementally and uses this only for verification).
	Weight() uint64
	// M returns the number of positions.
	M() uint64
	// K returns the per-item index count.
	K() int
	// AppendBinary appends the state a snapshot carries to dst: exactly
	// snapshotHeader.shardBlobLen bytes, no index family (geometry and
	// secrets travel out of band).
	AppendBinary(dst []byte) []byte
	// Load overwrites that state in place from r through buf with plain
	// stores, before publication, refusing a blob no AppendBinary of this
	// geometry writes; a failed load leaves it half-written (discard or Reset).
	Load(r io.Reader, buf []byte) error
	// Reset empties the backend: every position and its counts.
	Reset()
}

// Remover is the optional deletion capability: backends built on counters
// (§4.3) implement it, plain bit vectors cannot. The service answers remove
// requests against a non-Remover backend with a capability error.
type Remover interface {
	// CanRemoveIndexes reports whether RemoveIndexes(idx) would complete
	// without underflowing any position. TestIndexes is not a sufficient
	// guard: an index set repeating a position decrements it once per
	// occurrence, so a crafted duplicate can pass the membership check and
	// still underflow mid-removal.
	CanRemoveIndexes(idx []uint64) bool
	// RemoveIndexes decrements a pre-derived index set and returns how many
	// positions went unoccupied. A non-nil error means a position was
	// already unoccupied; decrements applied before the failure stick, and
	// zeroed stays accurate for them.
	RemoveIndexes(idx []uint64) (zeroed int, err error)
}

// overflowReporter is the stats-only capability of counter-based backends:
// how many counter-overflow events (the §6.2 attack signature) occurred.
type overflowReporter interface {
	Overflows() uint64
}

// digestSource is the capability behind the §7 cache-digest exchange: a
// backend that can project its occupancy down to a plain bit vector, the
// shape a digest travels in. Every shipped variant implements it (bloom and
// blocked backends clone their bits, a counting backend masks its non-zero
// counters), so a digest can be exported from any live filter variant.
type digestSource interface {
	// OccupancyBits returns a private copy of the occupancy pattern:
	// position i set iff the backend counts position i occupied.
	OccupancyBits() *bitset.BitSet
}

// ErrNotRemovable answers removal requests against a backend without the
// Remover capability.
var ErrNotRemovable = errors.New("service: filter backend does not support removal (create it with variant=counting)")

// Variant selects the per-shard backend a store is built from.
type Variant int

const (
	// VariantBloom is the classic §3 bit-vector filter: no deletion.
	VariantBloom Variant = iota
	// VariantCounting is the §4.3/§6 counting filter: small counters per
	// position, deletion supported, overflow policy configurable.
	VariantCounting
	// VariantBlocked is the cache-line-local blocked Bloom filter: all k
	// probe bits of an item land in one 512-bit block, so an operation costs
	// one cache miss instead of up to k. No deletion; shard size rounds up
	// to a whole number of blocks.
	VariantBlocked
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantBloom:
		return "bloom"
	case VariantCounting:
		return "counting"
	case VariantBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant resolves "bloom", "counting" or "blocked"; the empty string
// is the bloom default so wire specs may omit it.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "", "bloom":
		return VariantBloom, nil
	case "counting":
		return VariantCounting, nil
	case "blocked":
		return VariantBlocked, nil
	default:
		return 0, fmt.Errorf("service: unknown variant %q (want bloom, counting or blocked)", s)
	}
}

// bloomBackend adapts *core.Bloom to Backend. Count, Weight, M, K and the
// state encoding (AppendBinary, Load, Reset) promote straight through; the index methods are pinned to core's
// atomic paths, because the shard layer serves lock-free readers against
// these bits.
type bloomBackend struct {
	*core.Bloom
}

func (b bloomBackend) AddIndexes(idx []uint64) int {
	return b.Bloom.AddIndexesAtomic(idx)
}

func (b bloomBackend) TestIndexes(idx []uint64) bool {
	return b.Bloom.TestIndexesAtomic(idx)
}

// blockedBackend adapts *core.Blocked the same way; the block-local index
// mapping is core's concern, invisible to the shard layer.
type blockedBackend struct {
	*core.Blocked
}

func (b blockedBackend) AddIndexes(idx []uint64) int {
	return b.Blocked.AddIndexesAtomic(idx)
}

func (b blockedBackend) TestIndexes(idx []uint64) bool {
	return b.Blocked.TestIndexesAtomic(idx)
}

// countingBackend adapts *core.Counting to Backend + Remover,
// pinned to core's atomic paths like the others. AddIndexes also converts:
// core reports fresh and overflowed counters separately, the Backend
// contract wants the net occupancy change.
type countingBackend struct {
	*core.Counting
}

func (c countingBackend) AddIndexes(idx []uint64) int {
	fresh, overflowed := c.Counting.AddIndexesAtomic(idx)
	if c.Policy() == core.Wrap {
		// Every wrap event rolls an occupied (max-valued) counter over to
		// zero, erasing one occupied position.
		return fresh - overflowed
	}
	return fresh // saturated counters stay occupied
}

func (c countingBackend) TestIndexes(idx []uint64) bool {
	return c.Counting.TestIndexesAtomic(idx)
}

func (c countingBackend) RemoveIndexes(idx []uint64) (int, error) {
	return c.Counting.RemoveIndexesAtomic(idx)
}

//lint:allow atomicpublish loads run before publication: boot recovery and uploads restore a store no reader can reach yet
func (c countingBackend) Load(r io.Reader, buf []byte) error {
	// core restores the overflow policy from the blob; the service pins the
	// policy at creation, so a blob smuggling a different one (the envelope
	// cannot catch it: the inner blob has its own policy byte) is rejected
	// rather than silently flipping the shard's overflow behaviour.
	want := c.Policy()
	if err := c.Counting.Load(r, buf); err != nil {
		return err
	}
	if got := c.Policy(); got != want {
		return fmt.Errorf("service: snapshot carries overflow policy %v, filter uses %v", got, want)
	}
	return nil
}

var (
	_ Backend      = bloomBackend{}
	_ digestSource = bloomBackend{}
	_ Backend      = blockedBackend{}
	_ digestSource = blockedBackend{}
	_ Backend      = countingBackend{}
	_ Remover      = countingBackend{}
	_ digestSource = countingBackend{}
	_              = overflowReporter(countingBackend{})
)

// newBackend builds one shard's backend for cfg (already defaulted) over the
// shard's index family.
func newBackend(cfg Config, fam hashes.IndexFamily) (Backend, error) {
	switch cfg.Variant {
	case VariantBloom:
		return bloomBackend{core.NewBloom(fam)}, nil
	case VariantCounting:
		c, err := core.NewCounting(fam, cfg.CounterWidth, cfg.Overflow)
		if err != nil {
			return nil, err
		}
		return countingBackend{c}, nil
	case VariantBlocked:
		b, err := core.NewBlocked(fam)
		if err != nil {
			return nil, err
		}
		return blockedBackend{b}, nil
	default:
		return nil, fmt.Errorf("service: unknown variant %v", cfg.Variant)
	}
}
