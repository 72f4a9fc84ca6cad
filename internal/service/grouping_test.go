package service

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// oracleGroup is Sharded.group as it stood before PR 19: one position list
// per shard. Visiting shards in index order and each list front to back is
// the order the journal saw a batch in, which the sorted form must keep.
func oracleGroup(s *Sharded, items [][]byte) [][]int {
	groups := make([][]int, len(s.shards))
	for i, it := range items {
		si, _ := s.place.Route(it)
		groups[si] = append(groups[si], i)
	}
	return groups
}

// underRace reports whether this binary was built with -race. The race
// detector makes sync.Pool drop a quarter of what is Put and slows code
// unevenly, so allocation counts and timing ratios mean nothing under it.
func underRace() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// tinyConfig keeps a store of many shards small: the shard count is what
// these tests vary, not the filter.
func tinyConfig(variant Variant, shards int) Config {
	cfg := testConfig(ModeNaive, shards)
	cfg.Variant = variant
	cfg.ShardBits, cfg.HashCount = 256, 2
	return cfg
}

func TestGroupingVisitsInOracleOrder(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 256, 512, MaxShards} {
		s, err := NewSharded(tinyConfig(VariantBloom, shards))
		if err != nil {
			t.Fatal(err)
		}
		// A second round runs on the scratch the first one pooled.
		for _, n := range []int{0, 1, 2, 64, 1000, 64} {
			items := benchItems(n)
			var want [][2]int // (shard, position) in visiting order
			for si, g := range oracleGroup(s, items) {
				for _, ii := range g {
					want = append(want, [2]int{si, ii})
				}
			}
			var got [][2]int
			g := s.group(items)
			for lo := 0; lo < len(g.order); {
				si, run := g.run(lo)
				lo += len(run)
				for _, ii := range run {
					got = append(got, [2]int{si, ii})
				}
			}
			s.ungroup(g)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%d shards, %d items: visiting order\n got %v\nwant %v", shards, n, got, want)
			}
		}
	}
}

// A batch call must cost O(batch), never O(shards): before PR 19 every call
// allocated and walked one slot per shard, so a one-item TestBatch on a
// 65 536-shard filter — a geometry any client may create — cost over a
// thousand times the same call on 8 shards.
func TestGroupingIndependentOfShardCount(t *testing.T) {
	big, err := NewSharded(tinyConfig(VariantCounting, MaxShards))
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewSharded(tinyConfig(VariantCounting, 8))
	if err != nil {
		t.Fatal(err)
	}
	one := [][]byte{[]byte("http://one.example/item")}
	dst := make([]bool, 0, 1)

	before := big.Stats()
	big.AddBatch(one)
	after := big.Stats()
	changed := 0
	for i := range after.PerShard {
		if after.PerShard[i].Count != before.PerShard[i].Count {
			changed++
		}
	}
	if changed != 1 || after.Count != 1 {
		t.Fatalf("1-item AddBatch changed %d shards' Count (total %d), want exactly one", changed, after.Count)
	}
	if got := big.TestBatch(dst, one); len(got) != 1 || !got[0] {
		t.Fatalf("TestBatch after AddBatch = %v, want [true]", got)
	}

	if underRace() {
		return // see underRace; the checks above are the ones that hold
	}
	if n := testing.AllocsPerRun(100, func() { dst = big.TestBatch(dst[:0], one) }); n != 0 {
		t.Errorf("1-item TestBatch on %d shards: %v allocs, want 0", MaxShards, n)
	}
	if n := testing.AllocsPerRun(100, func() { big.AddBatch(one) }); n != 0 {
		t.Errorf("1-item AddBatch on %d shards: %v allocs, want 0", MaxShards, n)
	}
	// RemoveBatch returns a fresh result slice; that is its one allocation.
	if n := testing.AllocsPerRun(100, func() {
		big.AddBatch(one)
		if _, err := big.RemoveBatch(one); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("1-item AddBatch+RemoveBatch on %d shards: %v allocs, want 1 (the result slice)", MaxShards, n)
	}

	// Best of several rounds on each store, so a host stall during one
	// round cannot fail the check; the bound is two orders of magnitude
	// away from both the parent's ratio and the expected one (≈ 1.5).
	perCall := func(s *Sharded) time.Duration {
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ {
			const calls = 2000
			start := time.Now()
			for i := 0; i < calls; i++ {
				dst = s.TestBatch(dst[:0], one)
			}
			if d := time.Since(start) / calls; d < best {
				best = d
			}
		}
		return best
	}
	tSmall, tBig := perCall(small), perCall(big)
	t.Logf("1-item TestBatch: %v on 8 shards, %v on %d", tSmall, tBig, MaxShards)
	if tBig > 20*tSmall {
		t.Errorf("1-item TestBatch costs %v on %d shards against %v on 8: grouping scales with the shard count", tBig, MaxShards, tSmall)
	}
}

// Index scratch is sized by the window, not by the batch: since PR 19 one
// MaxBatch request against a 1-shard k = 512 filter — a geometry any client
// may create — derived 10 000 × 512 indexes (41 MB) before touching a bit,
// per request in flight, for a 100 KB request.
func TestBatchScratchBounded(t *testing.T) {
	cfg := tinyConfig(VariantCounting, 1)
	// 16-bit counters: each takes ≈ 78 of the 5 M increments, none wraps.
	cfg.ShardBits, cfg.HashCount, cfg.CounterWidth = 1<<16, MaxHashCount, 16
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := benchItems(MaxBatch)
	const windowBytes = deriveWindow * MaxHashCount * 8
	g := s.group(items)
	for lo := 0; lo < len(g.order); {
		si, run := g.run(lo)
		lo += len(run)
		if len(run) > deriveWindow {
			t.Fatalf("a run of %d keys, want at most the window of %d", len(run), deriveWindow)
		}
		if idx := s.derive(g, items, si, run); len(idx) != len(run)*MaxHashCount || cap(g.idx)*8 > windowBytes {
			t.Fatalf("window of %d keys: %d indexes in a scratch of %d bytes, want %d in at most %d",
				len(run), len(idx), cap(g.idx)*8, len(run)*MaxHashCount, windowBytes)
		}
	}
	s.ungroup(g)

	// The three batch methods end to end: everything they allocate for a
	// MaxBatch call — plan, digests, one window, results — stays far below
	// what deriving the whole run at once took.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.AddBatch(items)
	present := s.TestBatch(nil, items)
	removed, err := s.RemoveBatch(items)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if !present[i] || !removed[i] {
			t.Fatalf("item %d: present %v, removed %v across window boundaries", i, present[i], removed[i])
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("three MaxBatch calls at k=%d allocated %d bytes, want a few windows' worth (one window is %d)", MaxHashCount, grew, windowBytes)
	}
	if st := s.Stats(); st.Count != 0 || st.Weight != 0 {
		t.Errorf("after removing every added item: count %d, weight %d", st.Count, st.Weight)
	}
}

// The steady-state batch path allocates nothing: the plan and the window of
// indexes are pooled per store, and the journal appends into its own buffer.
func TestBatchPathSteadyStateAllocs(t *testing.T) {
	if underRace() {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	items := benchItems(64)
	dst := make([]bool, 0, len(items))
	reg := NewRegistry()
	if _, err := reg.OpenDataDir(t.TempDir(), SyncNever); err != nil {
		t.Fatal(err)
	}
	defer reg.Close() //nolint:errcheck // test teardown
	stores := map[string]*Sharded{}
	for name, mode := range map[string]Mode{"naive": ModeNaive, "hardened": ModeHardened} {
		cfg := testConfig(mode, 8)
		cfg.Variant = VariantCounting
		s, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stores[name] = s
	}
	cfg := testConfig(ModeHardened, 8)
	cfg.Variant = VariantCounting
	f, err := reg.Create("journaled", cfg)
	if err != nil {
		t.Fatal(err)
	}
	stores["hardened+journal"] = f.Store()

	for name, s := range stores {
		// Warm-up: pools fill, the journal buffer reaches its working size.
		for i := 0; i < 200; i++ {
			s.AddBatch(items)
			dst = s.TestBatch(dst[:0], items)
			if _, err := s.RemoveBatch(items); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, func() { dst = s.TestBatch(dst[:0], items) }); n != 0 {
			t.Errorf("%s: 64-key TestBatch makes %v allocs, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { s.AddBatch(items) }); n != 0 {
			t.Errorf("%s: 64-key AddBatch makes %v allocs, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := s.RemoveBatch(items); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("%s: 64-key RemoveBatch makes %v allocs, want 1 (its result slice)", name, n)
		}
	}
}

// The grouping scratch is shared through a pool: one caller's order must
// never reach another. Eight goroutines drive one counting store with
// batches of mixed sizes — one item, a typical 64, and a MaxBatch that is
// too large to be pooled — over disjoint key sets, each checking every
// verdict and removal outcome against what only its own keys can explain.
// Run under -race -count=5.
func TestPooledGroupingNoCrossTalk(t *testing.T) {
	cfg := testConfig(ModeHardened, 8)
	cfg.Variant = VariantCounting
	// Roomy enough that a never-added key testing present (a false
	// positive, which the model cannot tell from a leak) stays out of the
	// picture: at most 40 k keys are live in 16 M counters.
	cfg.ShardBits, cfg.HashCount = 1<<21, 7
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	sizes := []int{1, 64, MaxBatch, 64, 1, 64}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []bool
			for round, n := range sizes {
				// Even positions are added, odd ones never are.
				batch := make([][]byte, n)
				for i := range batch {
					batch[i] = []byte(fmt.Sprintf("worker-%d/round-%d/item-%d", w, round, i))
				}
				var mine [][]byte
				for i := 0; i < n; i += 2 {
					mine = append(mine, batch[i])
				}
				s.AddBatch(mine)
				dst = s.TestBatch(dst[:0], batch)
				for i, present := range dst {
					if present != (i%2 == 0) {
						t.Errorf("worker %d round %d: item %d present = %v, want %v", w, round, i, present, i%2 == 0)
						return
					}
				}
				removed, err := s.RemoveBatch(batch)
				if err != nil {
					t.Error(err)
					return
				}
				for i, ok := range removed {
					if ok != (i%2 == 0) {
						t.Errorf("worker %d round %d: item %d removed = %v, want %v", w, round, i, ok, i%2 == 0)
						return
					}
				}
				dst = s.TestBatch(dst[:0], mine)
				for i, present := range dst {
					if present {
						t.Errorf("worker %d round %d: removed item %d still present", w, round, 2*i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Count != 0 || st.Weight != 0 {
		t.Errorf("after every add was removed: count %d, weight %d, want 0, 0", st.Count, st.Weight)
	}
}
