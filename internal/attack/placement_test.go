package attack_test

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"evilbloom/internal/attack"
	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
	"evilbloom/internal/service"
	"evilbloom/internal/urlgen"
)

// serverStats reads the server's own per-shard ground truth.
func serverStats(t *testing.T, base string) service.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v2/filters/web/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// forgerFromInfo builds the constant-time forger from nothing but the
// target's published parameters, over either plane.
func forgerFromInfo(t *testing.T, target attack.Target) (*attack.InstantForger, *attack.RemoteInfo) {
	t.Helper()
	fam, info, err := attack.PublicFamily(target)
	if err != nil {
		t.Fatal(err)
	}
	forger, err := attack.NewInstantForger(fam, []byte("http://evil.com/"), 1)
	if err != nil {
		t.Fatal(err)
	}
	return forger, info
}

// printableInShard enumerates ItemInShard's variants until one is all ASCII:
// the HTTP plane carries items as JSON strings, which cannot spell arbitrary
// bytes. One inversion in 2¹⁶ qualifies (16 forged bytes, top bit clear), each
// a constant-time computation — milliseconds an item, no hash search.
func printableInShard(t *testing.T, f *attack.InstantForger, shard, shards int, base, stride uint64) []byte {
	t.Helper()
next:
	for variant := uint64(0); variant < 1<<22; variant++ {
		item, err := f.ItemInShard(shard, shards, base, stride, variant)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range item {
			if b >= 0x80 {
				continue next
			}
		}
		return item
	}
	t.Fatal("no printable pre-image in 2²² variants")
	return nil
}

// The attackable mode's property under the current placement layout, live
// over HTTP: an inverted Murmur-128 digest still lands on exactly the chosen
// indexes, and — new with the shard taken from that same public digest — in
// exactly the chosen shard. Pollution aimed at one shard takes it to fill f
// with 1/shards of the insertions that filling the whole store to f needs.
func TestForgedItemsChooseShardAndIndexesOverHTTP(t *testing.T) {
	const shards, victim = 4, 2
	ts, client := startServer(t, fig3Geometry(service.ModeNaive, shards))
	forger, info := forgerFromInfo(t, client)
	if info.Shards != shards {
		t.Fatalf("info reports %d shards", info.Shards)
	}
	k, m := uint64(info.K), info.ShardBits

	// Stride 1 from bases k apart: every item sets k bits nobody set before.
	const n = 40 // n·k/m = fill 0.05 of one 3200-bit shard
	items := make([][]byte, n)
	for i := range items {
		items[i] = printableInShard(t, forger, victim, shards, uint64(i)*k, 1)
	}
	if err := client.AddBatch(items); err != nil {
		t.Fatal(err)
	}
	st := serverStats(t, ts.URL)
	for _, sh := range st.PerShard {
		wantCount, wantWeight := uint64(0), uint64(0)
		if sh.Shard == victim {
			wantCount, wantWeight = n, n*k
		}
		if sh.Count != wantCount || sh.Weight != wantWeight {
			t.Errorf("shard %d: count %d weight %d, want %d, %d (every forged item in shard %d on k fresh bits)",
				sh.Shard, sh.Count, sh.Weight, wantCount, wantWeight, victim)
		}
	}
	if got, want := st.PerShard[victim].Fill, float64(n*k)/float64(m); got != want {
		t.Errorf("victim shard fill %v, want %v", got, want)
	}
	// The same insertions spread by a router she cannot predict would have
	// left every shard at fill/shards.
	if got, want := st.Fill, st.PerShard[victim].Fill/shards; math.Abs(got-want) > 1e-12 {
		t.Errorf("store fill %v, want the victim's %v over %d shards", got, st.PerShard[victim].Fill, shards)
	}

	// The chosen positions are the ones occupied: an item she never sent,
	// forged onto positions her pollution covers, is already "present";
	// the same positions in any other shard are not.
	ghost := printableInShard(t, forger, victim, shards, 3*k+1, 2)
	elsewhere := printableInShard(t, forger, victim^1, shards, 3*k+1, 2)
	present, err := client.TestBatch([][]byte{ghost, elsewhere})
	if err != nil {
		t.Fatal(err)
	}
	if !present[0] || present[1] {
		t.Errorf("forged false positive: in the polluted shard %v, in its neighbour %v; want true, false", present[0], present[1])
	}
}

// The hardened mode's counterpart: items aimed — by the public naive rule —
// at one shard and one set of positions spread evenly over a hardened store's
// shards, set about k fresh bits each like honest traffic, and land elsewhere
// again under another key.
func TestForgedItemsScatterOnHardenedStore(t *testing.T) {
	const shards, n = 8, 1600
	cfg := fig3Geometry(service.ModeHardened, shards)
	cfg.ShardBits = 1 << 16
	guess, err := hashes.NewDoubleHashing(cfg.HashCount, cfg.ShardBits, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	forger, err := attack.NewInstantForger(guess, []byte("http://evil.com/"), 1)
	if err != nil {
		t.Fatal(err)
	}
	// n distinct items, all aimed at shard 0 and the same four positions.
	items := make([][]byte, n)
	for i := range items {
		if items[i], err = forger.ItemInShard(0, shards, 100, 1, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// landing adds the items one by one and records the shard whose count
	// moved — the only way to see a hardened store's routing from outside.
	landing := func(key string) []int {
		c := cfg
		c.Key = []byte(key)
		store, err := service.NewSharded(c)
		if err != nil {
			t.Fatal(err)
		}
		where := make([]int, n)
		before := store.Stats()
		for i, it := range items {
			store.Add(it)
			after := store.Stats()
			where[i] = -1
			for s := range after.PerShard {
				if after.PerShard[s].Count != before.PerShard[s].Count {
					where[i] = s
				}
			}
			before = after
		}
		load := make([]int, shards)
		for _, s := range where {
			load[s]++
		}
		for s, c := range load {
			if want := n / shards; math.Abs(float64(c-want)) > 0.25*float64(want) {
				t.Errorf("key %q: shard %d took %d of %d aimed items, want ≈ %d", key, s, c, n, want)
			}
		}
		// Aimed at 4 positions, they set nearly 4 fresh bits each instead.
		if w := before.Weight; w < uint64(n*cfg.HashCount)*95/100 {
			t.Errorf("key %q: %d items aimed at the same %d positions set %d bits; a keyed placement should scatter them over ≈ %d",
				key, n, cfg.HashCount, w, n*cfg.HashCount)
		}
		return where
	}
	a, b := landing("0123456789abcdef"), landing("another-16b-key!")
	moved := 0
	for i := range a {
		if a[i] != b[i] {
			moved++
		}
	}
	if moved < n*3/4 { // 7/8 expected
		t.Errorf("only %d of %d items changed shard under another key", moved, n)
	}
}

// The §4.2 query-only adversary, in process, against the hardened store a
// filter gets today: she knows every inserted item but not the key, so she
// shadows the store under the public dablooms family and forges items her
// shadow calls false positives. Against the naive store of that family every
// forged item hits; against the keyed one they are random queries, hitting
// at the store's own false-positive rate (≈ 0.024 here), not at 1.
func TestQueryOnlyAgainstHardenedStore(t *testing.T) {
	const n, forged = 400, 200
	guess, err := hashes.NewDoubleHashing(4, 3200, 7)
	if err != nil {
		t.Fatal(err)
	}
	shadow := core.NewBloom(guess)
	stores := map[service.Mode]*service.Sharded{}
	for _, mode := range []service.Mode{service.ModeNaive, service.ModeHardened} {
		if stores[mode], err = service.NewSharded(fig3Geometry(mode, 1)); err != nil {
			t.Fatal(err)
		}
	}
	gen := urlgen.New(10)
	for i := 0; i < n; i++ {
		it := gen.Next()
		shadow.Add(it)
		for _, s := range stores {
			s.Add(it)
		}
	}
	fps, err := attack.NewQueryOnly(attack.NewBloomView(shadow), urlgen.New(11)).FalsePositives(forged, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	hits := map[service.Mode]int{}
	for _, fp := range fps {
		for mode, s := range stores {
			if s.Test(fp) {
				hits[mode]++
			}
		}
	}
	rate := core.FPR(3200, n, 4)
	t.Logf("%d forged false positives: naive store hits %d, hardened %d (its own FPR ≈ %.3f)", forged, hits[service.ModeNaive], hits[service.ModeHardened], rate)
	if hits[service.ModeNaive] != forged {
		t.Errorf("the naive store answered %d of %d forged items present, want all", hits[service.ModeNaive], forged)
	}
	if h := hits[service.ModeHardened]; float64(h) > 4*rate*forged {
		t.Errorf("the hardened store answered %d of %d forged items present; random queries hit ≈ %.1f", h, forged, rate*forged)
	}
}
