package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

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

// TestLockFreeReadsNoTornState is the regression for the read path, run
// with and without -race: while writer goroutines add — single items and
// AddBatch windows of 8–64 fresh ones (and, on counting, add-then-remove) —
// under the shard write locks, reader goroutines run Test
// and 64-key TestBatch windows. Two things must hold throughout: the race
// detector stays silent (every word the readers touch is accessed
// atomically on both sides), and a set of permanently-inserted items never
// once tests negative — a torn or stale read of a half-written word would
// surface as exactly that. The bloom rows' windows go through the probe
// kernel (bitset.TestProgressions), which a -race build swaps for its Go
// loop, and the bloom rows' adds go through the set kernel
// (bitset.SetProgression), whose plain stores a -race build swaps for
// SetAtomic: only the run without -race puts both kernels at work at once.
//
// Every row reads lock-free, which the test first pins directly: with every
// shard write-locked, Test and TestBatch still answer. The counter widths
// 3, 5 and 13 leave slack at the top of each word (21, 12 and 4 counters a
// word), the packing that keeps any counter from straddling two. The
// hardened row is layout 3, the keyed layout the probe kernel serves.
func TestLockFreeReadsNoTornState(t *testing.T) {
	for _, row := range []struct {
		variant Variant
		width   int // counter width; 0 keeps lockfreeCfg's choice
		mode    Mode
	}{
		{variant: VariantBloom},
		{variant: VariantBloom, mode: ModeHardened},
		{variant: VariantBlocked},
		{variant: VariantCounting},
		{variant: VariantCounting, width: 3},
		{variant: VariantCounting, width: 5},
		{variant: VariantCounting, width: 13},
	} {
		cfg := lockfreeCfg(row.variant)
		name := row.variant.String()
		if row.width != 0 {
			// Max 7 per counter at the narrowest: the ≤200 permanents plus
			// at most 4 × 65 in-flight writer items at ~5.6% fill stay far
			// below it.
			cfg.CounterWidth = row.width
			name = fmt.Sprintf("%v-w%d", row.variant, row.width)
		}
		if row.mode == ModeHardened {
			cfg.Mode, cfg.Key = ModeHardened, []byte("0123456789abcdef")
			name += "-hardened-v3"
		}
		t.Run(name+"/lockfree=true", func(t *testing.T) {
			s, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertReadsTakeNoLock(t, s)

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
					var window [][]byte
					for i := 0; i < iters; i++ {
						if i%32 == 0 {
							// A window of 8–64 fresh items: one lock hold
							// per shard sets them, by SetProgression on
							// the bloom rows.
							window = window[:0]
							for j := 0; j < 8+(i/32*7+id)%57; j++ {
								window = append(window, g.Next())
							}
							s.AddBatch(window)
							if s.Removable() {
								removed, err := s.RemoveBatch(window)
								if err != nil {
									errs <- fmt.Errorf("writer %d: remove batch: %w", id, err)
									return
								}
								for j, ok := range removed {
									if !ok {
										errs <- fmt.Errorf("writer %d: removal of just-added %q refused", id, window[j])
										return
									}
								}
							}
						}
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
					var verdicts []bool
					for i := 0; i < iters; i++ {
						it := permanent[(i*7919+id)%len(permanent)]
						if !s.Test(it) {
							errs <- fmt.Errorf("reader %d: permanent item %q tested negative (torn read?)", id, it)
							return
						}
						if i%8 != 0 {
							continue
						}
						lo := (i*31 + id) % (len(permanent) - 64)
						verdicts = s.TestBatch(verdicts[:0], permanent[lo:lo+64])
						for j, ok := range verdicts {
							if !ok {
								errs <- fmt.Errorf("reader %d: permanent item %q tested negative in a window (torn read?)", id, permanent[lo+j])
								return
							}
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

// assertReadsTakeNoLock fails unless Test and TestBatch answer while every
// shard is write-locked.
func assertReadsTakeNoLock(t *testing.T, s *Sharded) {
	t.Helper()
	s.lockAll()
	defer s.unlockAll()
	done := make(chan struct{})
	go func() {
		s.Test([]byte("probe"))
		s.TestBatch(nil, [][]byte{[]byte("probe"), []byte("other")})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a membership test waited on a shard lock")
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
