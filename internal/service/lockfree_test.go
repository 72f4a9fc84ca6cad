package service

import (
	"fmt"
	"sync"
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/urlgen"
)

// lockfreeCfg builds a store geometry for the concurrency tests: large
// enough (32k positions at k=4) that a few hundred insertions leave the fill
// low and false positives vanishingly rare, so the tests' membership
// assertions are deterministic in practice.
func lockfreeCfg(variant Variant) Config {
	cfg := Config{
		Variant:   variant,
		Shards:    4,
		ShardBits: 8192,
		HashCount: 4,
		Mode:      ModeNaive,
		Seed:      11,
		RouteKey:  []byte("fedcba9876543210"),
	}
	if variant == VariantCounting {
		// Width 8 gives counters headroom to 255; the tests' bounded
		// insertion counts keep every counter far below it, so neither
		// overflow policy can disturb occupancy.
		cfg.CounterWidth = 8
		cfg.Overflow = core.Wrap
	}
	return cfg
}

// TestLockFreeReadsNoTornState is the -race regression for the read path:
// while writer goroutines add (and, on counting, add-then-remove) under the
// shard write locks, reader goroutines run Test. Two things must hold
// throughout: the race detector stays silent (every word the readers touch
// is accessed atomically on both sides, or under the shard RLock), and a set
// of permanently-inserted items never once tests negative — a torn or stale
// read of a half-written word would surface as exactly that.
//
// Which read path a store takes is decided by its geometry alone: bit
// vectors and counters whose width divides 64 read lock-free; a width that
// straddles word boundaries (the 3-bit row) has only the RLock fallback.
func TestLockFreeReadsNoTornState(t *testing.T) {
	for _, row := range []struct {
		variant Variant
		width   int // counter width; 0 keeps lockfreeCfg's choice
	}{
		{variant: VariantBloom},
		{variant: VariantBlocked},
		{variant: VariantCounting},
		{variant: VariantCounting, width: 3},
	} {
		cfg := lockfreeCfg(row.variant)
		if row.width != 0 {
			// Max 7 per counter: the ≤200 permanents plus 4 in-flight
			// writer items at ~2.4% fill stay far below it.
			cfg.CounterWidth = row.width
		}
		lockFree := cfg.CounterWidth == 0 || 64%cfg.CounterWidth == 0
		t.Run(fmt.Sprintf("%v/lockfree=%v", row.variant, lockFree), func(t *testing.T) {
			s, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range s.shards {
				if got := s.shards[i].atomic != nil; got != lockFree {
					t.Fatalf("shard %d: lock-free reads = %v, geometry (counter width %d) wants %v",
						i, got, cfg.CounterWidth, lockFree)
				}
			}

			gen := urlgen.New(1)
			permanent := make([][]byte, 200)
			for i := range permanent {
				permanent[i] = gen.Next()
			}
			s.AddBatch(permanent)

			const (
				writers = 4
				readers = 4
				iters   = 1500
			)
			var wg sync.WaitGroup
			errs := make(chan error, writers+readers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					// Distinct serial ranges per writer keep the streams
					// disjoint from each other and from the permanents.
					g := urlgen.New(int64(100 + id))
					for i := 0; i < iters; i++ {
						item := g.Next()
						s.Add(item)
						if s.Removable() {
							// Balanced add-then-remove: exercises the
							// remove path against concurrent readers
							// while leaving every shared counter's net
							// reference count untouched.
							if ok, err := s.Remove(item); err != nil {
								errs <- fmt.Errorf("writer %d: remove: %w", id, err)
								return
							} else if !ok {
								errs <- fmt.Errorf("writer %d: removal of just-added item refused", id)
								return
							}
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						it := permanent[(i*7919+id)%len(permanent)]
						if !s.Test(it) {
							errs <- fmt.Errorf("reader %d: permanent item %q tested negative (torn read?)", id, it)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			for _, it := range permanent {
				if !s.Test(it) {
					t.Fatalf("permanent item %q lost after concurrent run", it)
				}
			}
		})
	}
}

// TestLockFreeReadsRefusedRemovalInvisible pins the refused-removal
// invariant on the lock-free path: a removal the filter refuses (the item
// tests absent, or a counter would underflow) must mutate nothing — in
// particular it must never wrap a zero counter up to max, which would SET a
// position. Remover goroutines hammer removals of never-inserted items
// while lock-free readers watch both those items (must stay absent — a
// position set by a refused removal would flip one present) and the
// permanently-inserted items (must stay present). No writers add during the
// run, so any membership change at all is a mutation leaked by a refusal.
func TestLockFreeReadsRefusedRemovalInvisible(t *testing.T) {
	s, err := NewSharded(lockfreeCfg(VariantCounting))
	if err != nil {
		t.Fatal(err)
	}

	gen := urlgen.New(2)
	permanent := make([][]byte, 200)
	for i := range permanent {
		permanent[i] = gen.Next()
	}
	s.AddBatch(permanent)

	// Candidate never-items are screened up front: at ~2.4% fill a false
	// positive is ~3e-7 per item, but screening makes the assertion exact
	// rather than probabilistic.
	never := make([][]byte, 0, 200)
	ngen := urlgen.New(500)
	for len(never) < 200 {
		it := ngen.Next()
		if !s.Test(it) {
			never = append(never, it)
		}
	}
	weightBefore := s.Stats().Weight

	const (
		removers = 4
		readers  = 4
		iters    = 1500
	)
	var wg sync.WaitGroup
	errs := make(chan error, removers+readers)
	for w := 0; w < removers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				it := never[(i*31+id*7)%len(never)]
				ok, err := s.Remove(it)
				if err != nil {
					errs <- fmt.Errorf("remover %d: %w", id, err)
					return
				}
				if ok {
					errs <- fmt.Errorf("remover %d: removal of never-added item %q accepted", id, it)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if it := never[(i*13+id)%len(never)]; s.Test(it) {
					errs <- fmt.Errorf("reader %d: never-added item %q tested positive — a refused removal set a position", id, it)
					return
				}
				if it := permanent[(i*17+id)%len(permanent)]; !s.Test(it) {
					errs <- fmt.Errorf("reader %d: permanent item %q tested negative — a refused removal cleared a position", id, it)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Stats().Weight; got != weightBefore {
		t.Fatalf("weight changed %d -> %d across refused removals", weightBefore, got)
	}
}
