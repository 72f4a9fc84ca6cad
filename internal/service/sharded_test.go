package service

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"evilbloom/internal/hashes"
	"evilbloom/internal/urlgen"
)

// testConfig returns a small deterministic store config.
func testConfig(mode Mode, shards int) Config {
	return Config{
		Shards:    shards,
		Capacity:  20000,
		TargetFPR: 1.0 / 1024,
		Mode:      mode,
		Seed:      3,
		Key:       []byte("0123456789abcdef"),
		RouteKey:  []byte("fedcba9876543210"),
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSharded(Config{Shards: 3}); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}
	if _, err := NewSharded(Config{TargetFPR: 1.5}); err == nil {
		t.Error("FPR above 1 accepted")
	}
	if _, err := NewSharded(Config{Mode: ModeHardened, Key: []byte("short")}); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewSharded(Config{RouteKey: []byte("short")}); err == nil {
		t.Error("short route key accepted")
	}
	s, err := NewSharded(Config{})
	if err != nil {
		t.Fatalf("default config: %v", err)
	}
	if s.Shards() != 8 {
		t.Errorf("default shards = %d, want 8", s.Shards())
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"naive", ModeNaive}, {"hardened", ModeHardened}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseMode("evil"); err == nil {
		t.Error("unknown mode accepted")
	}
}

// Membership must hold regardless of shard routing, in both modes.
func TestAddThenTest(t *testing.T) {
	for _, mode := range []Mode{ModeNaive, ModeHardened} {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := NewSharded(testConfig(mode, 8))
			if err != nil {
				t.Fatal(err)
			}
			gen := urlgen.New(1)
			items := make([][]byte, 2000)
			for i := range items {
				items[i] = gen.Next()
				s.Add(items[i])
			}
			for i, it := range items {
				if !s.Test(it) {
					t.Fatalf("item %d lost (false negative)", i)
				}
			}
			if s.Count() != uint64(len(items)) {
				t.Errorf("Count = %d, want %d", s.Count(), len(items))
			}
		})
	}
}

// Routing must spread a uniform workload roughly evenly under every layout
// and mode, and each layout says which secret moves an item to another
// shard: v1 routes by the route key in both modes; v2 naive routes by the
// public index digest, so the route key moves nothing (and the seed does);
// v2 and v3 hardened fold the route key into their one PRF key, so it moves
// items.
func TestShardRouting(t *testing.T) {
	for _, tc := range []struct {
		name          string
		layout        hashes.Layout
		mode          Mode
		routeKeyMoves bool
	}{
		{"v1-naive", hashes.LayoutV1, ModeNaive, true},
		{"v1-hardened", hashes.LayoutV1, ModeHardened, true},
		{"v2-naive", hashes.LayoutV2, ModeNaive, false},
		{"v2-hardened", hashes.LayoutV2, ModeHardened, true},
		{"v3-hardened", hashes.LayoutV3, ModeHardened, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.mode, 8)
			cfg.layout = tc.layout
			s, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			otherRoute, otherIndex := cfg, cfg
			otherRoute.RouteKey = []byte("0000000000000000")
			otherIndex.Seed, otherIndex.Key = 4, []byte("another-16b-key!")
			s2, err := NewSharded(otherRoute)
			if err != nil {
				t.Fatal(err)
			}
			s3, err := NewSharded(otherIndex)
			if err != nil {
				t.Fatal(err)
			}
			gen := urlgen.New(7)
			counts := make([]int, s.Shards())
			movedByRoute, movedByIndex := 0, 0
			const n = 8000
			for i := 0; i < n; i++ {
				it := gen.Next()
				a, _ := s.place.Route(it)
				b, _ := s2.place.Route(it)
				c, _ := s3.place.Route(it)
				counts[a]++
				if a != b {
					movedByRoute++
				}
				if a != c {
					movedByIndex++
				}
				if again, _ := s.place.Route(it); a != again {
					t.Fatal("routing is not deterministic")
				}
			}
			want := n / s.Shards()
			for i, c := range counts {
				if math.Abs(float64(c-want)) > 0.25*float64(want) {
					t.Errorf("shard %d holds %d of %d items (want ≈%d): router is skewed", i, c, n, want)
				}
			}
			// Under an independent key, 7/8 of items should route elsewhere.
			if tc.routeKeyMoves && movedByRoute < n/2 {
				t.Errorf("only %d/%d items moved under a different route key", movedByRoute, n)
			}
			if !tc.routeKeyMoves && movedByRoute != 0 {
				t.Errorf("%d/%d items moved under a different route key, which this layout does not route by", movedByRoute, n)
			}
			// The seed (naive) or index key (hardened) routes from v2 on.
			if wantMoved := tc.layout != hashes.LayoutV1; wantMoved && movedByIndex < n/2 {
				t.Errorf("only %d/%d items moved under a different seed/key", movedByIndex, n)
			} else if !wantMoved && movedByIndex != 0 {
				t.Errorf("%d/%d items moved under a different seed/key; v1 routes by the route key alone", movedByIndex, n)
			}
		})
	}
}

// Batch operations must agree exactly with their singleton counterparts:
// reads place and probe in windows, writes group by shard and derive in
// windows, and 1000 probes over 2 or 4 shards cross many of them — on a bit
// vector and on counters whose width leaves slack at the top of each word.
func TestBatchMatchesSingleton(t *testing.T) {
	bloom := testConfig(ModeHardened, 4)
	counting := testConfig(ModeNaive, 2)
	counting.Variant, counting.CounterWidth = VariantCounting, 3
	for name, cfg := range map[string]Config{"lock-free": bloom, "counting-w3": counting} {
		t.Run(name, func(t *testing.T) { testBatchMatchesSingleton(t, cfg) })
	}
}

func testBatchMatchesSingleton(t *testing.T, cfg Config) {
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := urlgen.New(2)
	batch := make([][]byte, 500)
	for i := range batch {
		batch[i] = gen.Next()
	}
	s.AddBatch(batch)
	if s.Count() != uint64(len(batch)) {
		t.Fatalf("Count after AddBatch = %d, want %d", s.Count(), len(batch))
	}
	probes := make([][]byte, 0, 1000)
	probes = append(probes, batch[:250]...)
	for i := 0; i < 750; i++ {
		probes = append(probes, gen.Next())
	}
	got := s.TestBatch(nil, probes)
	if len(got) != len(probes) {
		t.Fatalf("TestBatch returned %d results for %d probes", len(got), len(probes))
	}
	for i, p := range probes {
		if got[i] != s.Test(p) {
			t.Errorf("probe %d: batch says %v, singleton says %v", i, got[i], s.Test(p))
		}
	}
	for i := 0; i < 250; i++ {
		if !got[i] {
			t.Errorf("inserted probe %d reported absent", i)
		}
	}
}

// Concurrent mixed add/test traffic across all shards must be race-clean
// (run under -race) and lose no insertions.
func TestConcurrentMixedLoad(t *testing.T) {
	for _, mode := range []Mode{ModeNaive, ModeHardened} {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := NewSharded(testConfig(mode, 8))
			if err != nil {
				t.Fatal(err)
			}
			const workers, perWorker = 8, 500
			var wg sync.WaitGroup
			items := make([][][]byte, workers)
			for w := 0; w < workers; w++ {
				gen := urlgen.New(int64(100 + w))
				items[w] = make([][]byte, perWorker)
				for i := range items[w] {
					items[w][i] = gen.Next()
				}
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					probe := urlgen.New(int64(1000 + w))
					for i, it := range items[w] {
						s.Add(it)
						s.Test(probe.Next())
						if i%50 == 0 {
							s.Stats()
							s.TestBatch(nil, items[w][:10])
						}
					}
				}(w)
			}
			wg.Wait()
			if got := s.Count(); got != workers*perWorker {
				t.Errorf("Count = %d, want %d", got, workers*perWorker)
			}
			for w := 0; w < workers; w++ {
				for i, it := range items[w] {
					if !s.Test(it) {
						t.Fatalf("worker %d item %d lost under concurrency", w, i)
					}
				}
			}
		})
	}
}

func TestStats(t *testing.T) {
	s, err := NewSharded(testConfig(ModeNaive, 4))
	if err != nil {
		t.Fatal(err)
	}
	gen := urlgen.New(3)
	for i := 0; i < 1000; i++ {
		s.Add(gen.Next())
	}
	st := s.Stats()
	if st.Mode != "naive" || st.Shards != 4 || st.Count != 1000 {
		t.Errorf("stats header wrong: %+v", st)
	}
	var weight, count uint64
	for _, ss := range st.PerShard {
		weight += ss.Weight
		count += ss.Count
		if ss.Fill <= 0 || ss.Fill >= 1 {
			t.Errorf("shard %d fill %v out of range", ss.Shard, ss.Fill)
		}
		// The incrementally-tracked weight must equal the ground-truth
		// popcount of the shard's bit vector.
		if actual := s.shards[ss.Shard].backend.Weight(); ss.Weight != actual {
			t.Errorf("shard %d tracked weight %d != popcount %d", ss.Shard, ss.Weight, actual)
		}
	}
	if weight != st.Weight || count != st.Count {
		t.Errorf("per-shard sums (w=%d n=%d) disagree with totals (w=%d n=%d)",
			weight, count, st.Weight, st.Count)
	}
	if st.FPR <= 0 || st.FPR >= 1 {
		t.Errorf("aggregate FPR %v out of range", st.FPR)
	}
	// Sanity: the empirical false-positive rate over fresh probes should be
	// within an order of magnitude of the estimate.
	probes, fps := 20000, 0
	probe := urlgen.New(99)
	for i := 0; i < probes; i++ {
		if s.Test(probe.Next()) {
			fps++
		}
	}
	if emp := float64(fps) / float64(probes); emp > 10*st.FPR+0.01 {
		t.Errorf("empirical FPR %v far above estimate %v", emp, st.FPR)
	}
}

// Layout v1's hardened shards must not share an index key: an item's
// positions in one shard's family must not replay in another's. (Layout v2
// has one key for the whole store and does not need the property: an item's
// shard is a function of the item, so there is no other shard to replay a
// forged positive against — TestHardenedV2ShardIsTheItems.)
func TestHardenedShardKeysDiffer(t *testing.T) {
	cfg := testConfig(ModeHardened, 4)
	cfg.layout = hashes.LayoutV1
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	item := []byte("http://example.com/same-item")
	seen := make(map[string]bool)
	for i := range s.shards {
		idx := s.place.Family(i).Indexes(nil, item)
		key := fmt.Sprint(idx)
		if seen[key] {
			t.Fatalf("two shards derived identical index sets %v", idx)
		}
		seen[key] = true
	}
}

// Under layout v2 an item is only ever looked up in its own shard: set its
// bits in every OTHER shard and the store still answers absent.
func TestHardenedV2ShardIsTheItems(t *testing.T) {
	s, err := NewSharded(testConfig(ModeHardened, 4))
	if err != nil {
		t.Fatal(err)
	}
	item := []byte("http://example.com/same-item")
	home, idx := s.place.Place(nil, item)
	for i := range s.shards {
		if i != home {
			s.shards[i].backend.AddIndexes(idx)
		}
	}
	if s.Test(item) {
		t.Error("an item's bits in foreign shards made it present")
	}
	s.shards[home].backend.AddIndexes(idx)
	if !s.Test(item) {
		t.Error("an item's bits in its own shard did not")
	}
}
