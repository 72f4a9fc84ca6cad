package attack_test

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"evilbloom/internal/attack"
	"evilbloom/internal/hashes"
	"evilbloom/internal/service"
)

// serverStats reads the server's own per-shard ground truth.
func serverStats(t *testing.T, base string) service.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
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
// server's published parameters.
func forgerFromInfo(t *testing.T, client *attack.RemoteClient) (*attack.InstantForger, *attack.RemoteInfo) {
	t.Helper()
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seed == nil {
		t.Fatalf("server mode %q publishes no seed", info.Mode)
	}
	fam, err := hashes.NewDoubleHashing(info.K, info.ShardBits, *info.Seed)
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
