package attack

import (
	"errors"
	"fmt"

	"evilbloom/internal/core"
)

// ErrBudgetExhausted is returned when a forgery gives up after its attempt
// budget; callers decide whether to retry with a larger budget.
var ErrBudgetExhausted = errors.New("attack: attempt budget exhausted")

// View is the adversary's knowledge of the filter under attack: how items
// map to index positions and which positions are currently occupied.
// Positions are (slot, index) pairs so that partitioned (pyBloom) filters,
// where index i lives in slice i, share one abstraction with flat filters,
// which ignore the slot.
type View interface {
	// Indexes appends item's k index positions to dst.
	Indexes(dst []uint64, item []byte) []uint64
	// OccupiedAt reports whether position (slot, idx) is non-zero.
	OccupiedAt(slot int, idx uint64) bool
	// Partitioned reports whether index i is scoped to slice i (true) or all
	// indexes address one shared vector (false).
	Partitioned() bool
	// K returns the number of indexes per item.
	K() int
	// M returns the total number of positions.
	M() uint64
}

// Generator yields candidate items for brute-force forgery. Implementations
// must eventually produce fresh items forever (e.g. a seeded fake-URL
// stream).
type Generator interface {
	Next() []byte
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func() []byte

// Next implements Generator.
func (f GeneratorFunc) Next() []byte { return f() }

// ---------------------------------------------------------------------------
// Views over the core filter types.

type bloomView struct{ b *core.Bloom }

// NewBloomView adapts a classic filter to the adversary's View.
func NewBloomView(b *core.Bloom) View { return bloomView{b} }

func (v bloomView) Indexes(dst []uint64, item []byte) []uint64 {
	return v.b.Family().Indexes(dst, item)
}
func (v bloomView) OccupiedAt(_ int, idx uint64) bool { return v.b.Occupied(idx) }
func (v bloomView) Partitioned() bool                 { return false }
func (v bloomView) K() int                            { return v.b.K() }
func (v bloomView) M() uint64                         { return v.b.M() }

type countingView struct{ c *core.Counting }

// NewCountingView adapts a counting filter to the adversary's View.
func NewCountingView(c *core.Counting) View { return countingView{c} }

func (v countingView) Indexes(dst []uint64, item []byte) []uint64 {
	return v.c.Family().Indexes(dst, item)
}
func (v countingView) OccupiedAt(_ int, idx uint64) bool { return v.c.Occupied(idx) }
func (v countingView) Partitioned() bool                 { return false }
func (v countingView) K() int                            { return v.c.K() }
func (v countingView) M() uint64                         { return v.c.M() }

type partitionedView struct{ p *core.Partitioned }

// NewPartitionedView adapts a pyBloom-style partitioned filter.
func NewPartitionedView(p *core.Partitioned) View { return partitionedView{p} }

func (v partitionedView) Indexes(dst []uint64, item []byte) []uint64 {
	return v.p.Indexes(dst, item)
}
func (v partitionedView) OccupiedAt(slot int, idx uint64) bool { return v.p.OccupiedAt(slot, idx) }
func (v partitionedView) Partitioned() bool                    { return true }
func (v partitionedView) K() int                               { return v.p.K() }
func (v partitionedView) M() uint64                            { return v.p.M() }

// ---------------------------------------------------------------------------
// Forgery conditions.

// IsPolluting reports condition (6): every index position is unoccupied and
// — in a flat filter — the k indexes are pairwise distinct, so insertion
// sets exactly k fresh bits.
func IsPolluting(v View, idx []uint64) bool {
	for i, x := range idx {
		if v.OccupiedAt(i, x) {
			return false
		}
	}
	if !v.Partitioned() {
		for i := 1; i < len(idx); i++ {
			for j := 0; j < i; j++ {
				if idx[i] == idx[j] {
					return false
				}
			}
		}
	}
	return true
}

// IsFalsePositive reports condition (8): every index position occupied.
func IsFalsePositive(v View, idx []uint64) bool {
	for i, x := range idx {
		if !v.OccupiedAt(i, x) {
			return false
		}
	}
	return true
}

// IsExpensiveQuery reports the dummy-query condition of §4.2: the first k−1
// positions occupied and the last one not — the query walks the maximum
// number of memory accesses and still misses.
func IsExpensiveQuery(v View, idx []uint64) bool {
	last := len(idx) - 1
	for i, x := range idx[:last] {
		if !v.OccupiedAt(i, x) {
			return false
		}
	}
	return !v.OccupiedAt(last, idx[last])
}

// SharesIndex reports the deletion condition of §4.3: the candidate shares
// at least one position with the victim's index set.
func SharesIndex(v View, idx, victim []uint64) bool {
	for i, x := range idx {
		for j, y := range victim {
			if x != y {
				continue
			}
			if !v.Partitioned() || i == j {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Forger: budgeted brute-force search.

// Forger drives brute-force forgery against a filter view, accounting every
// candidate tried so experiments can report attack cost (Fig 5, Fig 6).
type Forger struct {
	view    View
	gen     Generator
	scratch []uint64

	// Attempts counts candidates examined since construction.
	Attempts uint64
	// Forged counts successful forgeries.
	Forged uint64
}

// NewForger builds a forger over the view, drawing candidates from gen.
func NewForger(view View, gen Generator) *Forger {
	return &Forger{view: view, gen: gen, scratch: make([]uint64, 0, view.K())}
}

func (f *Forger) search(budget uint64, cond func([]uint64) bool) ([]byte, []uint64, error) {
	for tried := uint64(0); budget == 0 || tried < budget; tried++ {
		item := f.gen.Next()
		f.Attempts++
		f.scratch = f.view.Indexes(f.scratch[:0], item)
		if cond(f.scratch) {
			f.Forged++
			idx := make([]uint64, len(f.scratch))
			copy(idx, f.scratch)
			return item, idx, nil
		}
	}
	return nil, nil, fmt.Errorf("%w after %d candidates", ErrBudgetExhausted, budget)
}

// ForgePolluting returns an item satisfying condition (6) against the
// current filter state: inserting it sets k previously-unset bits. A budget
// of 0 searches forever.
func (f *Forger) ForgePolluting(budget uint64) ([]byte, []uint64, error) {
	return f.search(budget, func(idx []uint64) bool { return IsPolluting(f.view, idx) })
}

// ForgeFalsePositive returns an item satisfying condition (8): the filter
// answers "present" although the item was never inserted.
func (f *Forger) ForgeFalsePositive(budget uint64) ([]byte, []uint64, error) {
	return f.search(budget, func(idx []uint64) bool { return IsFalsePositive(f.view, idx) })
}

// ForgeExpensiveQuery returns an item whose query inspects k−1 set bits
// before failing on the k-th — the worst-case execution time of §4.2.
func (f *Forger) ForgeExpensiveQuery(budget uint64) ([]byte, []uint64, error) {
	if f.view.K() < 2 {
		return nil, nil, fmt.Errorf("attack: expensive queries need k ≥ 2, have %d", f.view.K())
	}
	return f.search(budget, func(idx []uint64) bool { return IsExpensiveQuery(f.view, idx) })
}

// ForgeDeletion returns an item sharing at least one index position with
// victim's index set (§4.3); removing it from a counting filter decrements a
// counter the victim depends on.
func (f *Forger) ForgeDeletion(victim []uint64, budget uint64) ([]byte, []uint64, error) {
	if len(victim) == 0 {
		return nil, nil, fmt.Errorf("attack: empty victim index set")
	}
	return f.search(budget, func(idx []uint64) bool { return SharesIndex(f.view, idx, victim) })
}
