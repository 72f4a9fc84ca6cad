package attack

import (
	"fmt"

	"evilbloom/internal/core"
)

// Inserter is the trusted party the chosen-insertion adversary tricks into
// adding her items (a crawler visiting her link farm, an anti-phishing feed
// ingesting her URLs, a proxy fetching her pages).
type Inserter interface {
	Add(item []byte)
}

// PollutionPoint records the filter state after one adversarial insertion,
// the series plotted in Fig 3.
type PollutionPoint struct {
	// Inserted is the total insertions so far (honest + adversarial).
	Inserted uint64
	// Attempts is the cumulative number of candidates the adversary tried.
	Attempts uint64
	// Weight is the filter's Hamming weight.
	Weight uint64
	// FPR is the estimated false-positive probability (W/m)^k.
	FPR float64
}

// Weigher exposes the filter state the campaign records. All core filter
// types implement it.
type Weigher interface {
	Weight() uint64
	EstimatedFPR() float64
	Count() uint64
}

// ChosenInsertion is the §4.1 adversary: she forges items that each set k
// previously-unset bits and has the trusted party insert them, driving the
// false-positive probability to (nk/m)^k instead of eq (1).
type ChosenInsertion struct {
	forger *Forger
	view   View
	sink   Inserter
	state  Weigher
}

// NewChosenInsertion wires the adversary to a filter under attack. view and
// state must observe the same filter that sink inserts into.
func NewChosenInsertion(view View, sink Inserter, state Weigher, gen Generator) *ChosenInsertion {
	return &ChosenInsertion{forger: NewForger(view, gen), view: view, sink: sink, state: state}
}

// Forger exposes the underlying forger for attempt accounting.
func (a *ChosenInsertion) Forger() *Forger { return a.forger }

// PolluteN forges and inserts n polluting items, returning one point per
// insertion. perItemBudget bounds the candidate search per item (0 =
// unbounded).
func (a *ChosenInsertion) PolluteN(n int, perItemBudget uint64) ([]PollutionPoint, error) {
	points := make([]PollutionPoint, 0, n)
	for i := 0; i < n; i++ {
		item, _, err := a.forger.ForgePolluting(perItemBudget)
		if err != nil {
			return points, fmt.Errorf("attack: polluting item %d: %w", i, err)
		}
		a.sink.Add(item)
		points = append(points, PollutionPoint{
			Inserted: a.state.Count(),
			Attempts: a.forger.Attempts,
			Weight:   a.state.Weight(),
			FPR:      a.state.EstimatedFPR(),
		})
	}
	return points, nil
}

// Saturate pollutes until every position is occupied — the §4.1 saturation
// attack needing only ≈⌊m/k⌋ items instead of the honest m·log(m)/k. While
// strictly-polluting items (condition 6) remain findable within the
// per-item budget they are used (one item per k bits); towards full
// saturation the forger greedily takes the candidate setting the most fresh
// bits, so the attack terminates with a small item overhead.
// perItemBudget = 0 selects a default of 20000 candidates per item.
func (a *ChosenInsertion) Saturate(perItemBudget uint64) (uint64, error) {
	if perItemBudget == 0 {
		perItemBudget = 20000
	}
	var inserted uint64
	m := a.view.M()
	for {
		w := a.state.Weight()
		if w >= m {
			return inserted, nil
		}
		item, err := a.forgeBestFresh(perItemBudget)
		if err != nil {
			return inserted, fmt.Errorf("attack: saturation stalled at weight %d/%d: %w", w, m, err)
		}
		a.sink.Add(item)
		inserted++
	}
}

// PolluteGreedy forges and inserts n best-effort polluting items: strictly
// polluting (condition 6, k fresh bits) while such items remain findable
// within the per-item budget, otherwise the candidate setting the most
// fresh bits. This is the §7 digest regime: a cache digest is small enough
// that a strict campaign exhausts the free positions mid-run, and the
// adversary's goal is weight, not per-item perfection. The campaign ends
// early — without error — once the filter view is saturated, since no
// further insertion can pollute anything. perItemBudget = 0 selects the
// Saturate default of 20000 candidates per item.
func (a *ChosenInsertion) PolluteGreedy(n int, perItemBudget uint64) ([]PollutionPoint, error) {
	if perItemBudget == 0 {
		perItemBudget = 20000
	}
	points := make([]PollutionPoint, 0, n)
	for i := 0; i < n; i++ {
		item, err := a.forgeBestFresh(perItemBudget)
		if err != nil {
			if a.state.Weight() >= a.view.M() {
				return points, nil // saturated: every position set, nothing to pollute
			}
			return points, fmt.Errorf("attack: greedy polluting item %d: %w", i, err)
		}
		a.sink.Add(item)
		points = append(points, PollutionPoint{
			Inserted: a.state.Count(),
			Attempts: a.forger.Attempts,
			Weight:   a.state.Weight(),
			FPR:      a.state.EstimatedFPR(),
		})
	}
	return points, nil
}

// forgeBestFresh returns the first candidate meeting the strict pollution
// condition, or — if the budget runs out first — the candidate that set the
// most previously-unset bits. It fails only if every candidate was a full
// false positive.
func (a *ChosenInsertion) forgeBestFresh(budget uint64) ([]byte, error) {
	var best []byte
	bestFresh := 0
	scratch := make([]uint64, 0, a.view.K())
	for tried := uint64(0); tried < budget; tried++ {
		item := a.forger.gen.Next()
		a.forger.Attempts++
		scratch = a.view.Indexes(scratch[:0], item)
		if IsPolluting(a.view, scratch) {
			a.forger.Forged++
			return item, nil
		}
		fresh := 0
		for i, x := range scratch {
			if !a.view.OccupiedAt(i, x) {
				fresh++
			}
		}
		if fresh > bestFresh {
			bestFresh = fresh
			best = item
		}
	}
	if bestFresh == 0 {
		return nil, fmt.Errorf("%w: no candidate touched a free position in %d tries", ErrBudgetExhausted, budget)
	}
	a.forger.Forged++
	return best, nil
}

// QueryOnly is the §4.2 adversary: she cannot insert, but knows the filter
// state and crafts queries that either hit (false-positive flooding against
// the backing store) or walk k−1 set bits before missing (worst-case
// latency).
type QueryOnly struct {
	forger *Forger
}

// NewQueryOnly wires the adversary to a filter view.
func NewQueryOnly(view View, gen Generator) *QueryOnly {
	return &QueryOnly{forger: NewForger(view, gen)}
}

// Forger exposes the underlying forger for attempt accounting.
func (a *QueryOnly) Forger() *Forger { return a.forger }

// FalsePositives forges n distinct false-positive items (ghost URLs in the
// Scrapy attack, unnecessary sibling hits in the Squid attack).
func (a *QueryOnly) FalsePositives(n int, perItemBudget uint64) ([][]byte, error) {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		item, _, err := a.forger.ForgeFalsePositive(perItemBudget)
		if err != nil {
			return out, fmt.Errorf("attack: false positive %d: %w", i, err)
		}
		out = append(out, item)
	}
	return out, nil
}

// ExpensiveQueries forges n queries reaching the worst-case execution time.
func (a *QueryOnly) ExpensiveQueries(n int, perItemBudget uint64) ([][]byte, error) {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		item, _, err := a.forger.ForgeExpensiveQuery(perItemBudget)
		if err != nil {
			return out, fmt.Errorf("attack: expensive query %d: %w", i, err)
		}
		out = append(out, item)
	}
	return out, nil
}

// Deletion is the §4.3 adversary against counting filters: she forges items
// the filter believes present (false positives) whose index sets overlap the
// victim's, then has them "deleted", driving the victim's counters to zero.
type Deletion struct {
	forger *Forger
	view   View
	filter *core.Counting
}

// NewDeletion wires the adversary to a counting filter.
func NewDeletion(filter *core.Counting, gen Generator) *Deletion {
	view := NewCountingView(filter)
	return &Deletion{forger: NewForger(view, gen), view: view, filter: filter}
}

// Forger exposes the underlying forger for attempt accounting.
func (a *Deletion) Forger() *Forger { return a.forger }

// Evict makes victim disappear from the filter: it repeatedly forges a
// false-positive item whose index set contains the victim position with the
// smallest counter and removes it, until some victim counter reaches zero.
// It returns the forged items that were removed. perItemBudget bounds each
// search; maxRemovals guards against pathological loops.
func (a *Deletion) Evict(victim []byte, perItemBudget uint64, maxRemovals int) ([][]byte, error) {
	victimIdx := a.view.Indexes(nil, victim)
	removed := make([][]byte, 0, 8)
	for r := 0; r < maxRemovals; r++ {
		target, ok := a.weakestCounter(victimIdx)
		if !ok {
			return removed, nil // some victim counter already zero: evicted
		}
		item, _, err := a.forger.search(perItemBudget, func(idx []uint64) bool {
			if !IsFalsePositive(a.view, idx) {
				return false
			}
			for _, x := range idx {
				if x == target {
					return true
				}
			}
			return false
		})
		if err != nil {
			return removed, fmt.Errorf("attack: evicting %q: %w", victim, err)
		}
		if err := a.filter.Remove(item); err != nil {
			return removed, fmt.Errorf("attack: trusted party refused removal: %w", err)
		}
		removed = append(removed, item)
		if !a.filter.TestIndexesAtomic(victimIdx) {
			return removed, nil
		}
	}
	return removed, fmt.Errorf("attack: victim still present after %d removals", maxRemovals)
}

// weakestCounter returns the victim position with the smallest non-zero
// counter; ok is false when a victim counter is already zero.
func (a *Deletion) weakestCounter(victimIdx []uint64) (uint64, bool) {
	var best uint64
	bestVal := a.filter.CounterMax() + 1
	for _, x := range victimIdx {
		v := a.filter.Counter(x)
		if v == 0 {
			return 0, false
		}
		if v < bestVal {
			bestVal = v
			best = x
		}
	}
	return best, true
}
