package service

import (
	"fmt"
	"sync"
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
	"evilbloom/internal/urlgen"
)

// countingRaceConfig builds a small counting store that overflows quickly:
// 2-bit counters cap at 3, so a handful of repeated adds exercises the
// overflow path (wrap's occupancy erasure, saturate's pinning) while the
// race detector watches.
func countingRaceConfig(policy core.OverflowPolicy, shards int) Config {
	return Config{
		Variant:      VariantCounting,
		Shards:       shards,
		ShardBits:    2048,
		HashCount:    4,
		Mode:         ModeNaive,
		Seed:         3,
		RouteKey:     []byte("fedcba9876543210"),
		CounterWidth: 2,
		Overflow:     policy,
	}
}

// Concurrent add/remove/test/stats traffic on counting shards must be
// race-clean under every overflow policy (run with -race), and the
// incremental weight accounting — including the wrap-around occupancy
// erasure and removal zeroing — must end exactly at the ground truth.
func TestCountingConcurrentAddRemove(t *testing.T) {
	for _, policy := range []core.OverflowPolicy{core.Wrap, core.Saturate} {
		t.Run(policy.String(), func(t *testing.T) {
			s, err := NewSharded(countingRaceConfig(policy, 4))
			if err != nil {
				t.Fatal(err)
			}
			const workers, perWorker = 8, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					gen := urlgen.New(int64(100 + w))
					items := make([][]byte, perWorker)
					for i := range items {
						items[i] = gen.Next()
					}
					for i, it := range items {
						// Repeated adds push 2-bit counters into overflow.
						for r := 0; r < 5; r++ {
							s.Add(it)
						}
						if i%2 == 0 {
							if _, err := s.Remove(it); err != nil {
								t.Errorf("worker %d: remove: %v", w, err)
								return
							}
						}
						s.Test(it)
						if i%20 == 0 {
							s.Stats()
							s.AddBatch(items[:5])
							if _, err := s.RemoveBatch(items[:5]); err != nil {
								t.Errorf("worker %d: remove-batch: %v", w, err)
								return
							}
							s.TestBatch(nil, items[:10])
						}
					}
				}(w)
			}
			wg.Wait()

			// Accounting: the incrementally tracked weight of every shard
			// must equal the ground-truth non-zero-counter scan, and the
			// aggregated overflow tally must match the backends'.
			var wantOverflows uint64
			for i := range s.shards {
				sh := &s.shards[i]
				if actual := sh.backend.Weight(); sh.weight != actual {
					t.Errorf("%v shard %d: tracked weight %d != scan %d", policy, i, sh.weight, actual)
				}
				wantOverflows += sh.backend.(overflowReporter).Overflows()
			}
			st := s.Stats()
			if st.Overflows != wantOverflows {
				t.Errorf("stats overflow tally %d != backend sum %d", st.Overflows, wantOverflows)
			}
			if st.Overflows == 0 {
				t.Errorf("%v: the storm never overflowed a 2-bit counter; the test lost its point", policy)
			}
			t.Logf("%v: count=%d weight=%d overflows=%d", policy, st.Count, st.Weight, st.Overflows)
		})
	}
}

// Removals can never underflow: a storm of concurrent removes of the same
// items (most of which will be refused once counters drain) must leave
// every counter consistent and the tracked weight exact.
func TestCountingConcurrentRemoveStorm(t *testing.T) {
	for _, policy := range []core.OverflowPolicy{core.Wrap, core.Saturate} {
		t.Run(policy.String(), func(t *testing.T) {
			s, err := NewSharded(countingRaceConfig(policy, 2))
			if err != nil {
				t.Fatal(err)
			}
			gen := urlgen.New(7)
			items := make([][]byte, 100)
			for i := range items {
				items[i] = gen.Next()
				s.Add(items[i])
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, it := range items {
						// Only some succeed; the rest must be refusals, not
						// underflows or errors.
						if _, err := s.Remove(it); err != nil {
							t.Errorf("remove storm: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			for i := range s.shards {
				sh := &s.shards[i]
				if actual := sh.backend.Weight(); sh.weight != actual {
					t.Errorf("shard %d: tracked weight %d != scan %d after storm", i, sh.weight, actual)
				}
			}
			// Every item must now be gone (each was added once and eight
			// workers raced to remove it — exactly one per item wins), and
			// under Wrap the store must be empty.
			for i, it := range items {
				if s.Test(it) {
					t.Errorf("item %d survived the remove storm", i)
				}
			}
			if policy == core.Wrap && s.Stats().Weight != 0 {
				t.Errorf("weight %d after removing everything, want 0", s.Stats().Weight)
			}
		})
	}
}

// Remove on a bloom-variant store fails with the capability error, and the
// error is stable for errors.Is.
func TestBloomStoreNotRemovable(t *testing.T) {
	s, err := NewSharded(Config{Shards: 1, ShardBits: 1024, HashCount: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Removable() {
		t.Error("bloom store claims the remove capability")
	}
	if _, err := s.Remove([]byte("x")); err != ErrNotRemovable {
		t.Errorf("Remove error = %v, want ErrNotRemovable", err)
	}
	if _, err := s.RemoveBatch([][]byte{[]byte("x")}); err != ErrNotRemovable {
		t.Errorf("RemoveBatch error = %v, want ErrNotRemovable", err)
	}
}

// Crafted duplicate-position index sets must be refused, not allowed to
// underflow mid-removal (the partial-removal footprint).
func TestRemoveRefusesDuplicateUnderflow(t *testing.T) {
	cfg := countingRaceConfig(core.Wrap, 1)
	fam, err := hashes.NewDoubleHashing(cfg.HashCount, cfg.ShardBits, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCounting(fam, 4, core.Wrap)
	if err != nil {
		t.Fatal(err)
	}
	// Counter 5 holds 1; an index set visiting it twice passes the
	// membership check but cannot be removed safely.
	c.AddIndexes([]uint64{5, 6})
	dup := []uint64{5, 5}
	if !c.TestIndexes(dup) {
		t.Fatal("membership check should pass: counter non-zero")
	}
	if c.CanRemoveIndexes(dup) {
		t.Error("duplicate set accepted although it would underflow")
	}
	if !c.CanRemoveIndexes([]uint64{5, 6}) {
		t.Error("legitimate removal rejected")
	}
	sh := &shard{backend: countingBackend{c}, remover: countingBackend{c}, weight: 2}
	removed, err := sh.removeLocked(dup)
	if err != nil || removed {
		t.Errorf("removeLocked(dup) = %v, %v; want refused without error", removed, err)
	}
	if fmt.Sprint(c.Counter(5)) != "1" {
		t.Errorf("refused removal still mutated counter: %d", c.Counter(5))
	}
}
