package respcampaign

import (
	"testing"

	"evilbloom/internal/attack"
	"evilbloom/internal/hashes"
	"evilbloom/internal/resp"
	"evilbloom/internal/service"
)

// The RESP plane is binary-safe, so the constant-time forger's raw 16-byte
// suffixes travel as they are: from BF.INFO alone the adversary aims every
// item of a pipelined BF.MADD at one shard of a naive store and at positions
// of her choosing, and takes that shard to fill ½ with the insertions that
// would bring the whole store to ½ / shards.
func TestForgedItemsChooseShardAndIndexesOverRESP(t *testing.T) {
	const shards, victim, n = 8, 5, 400
	addr, reg := startTarget(t, "web", service.Config{Shards: shards, ShardBits: 3200, HashCount: 4, Seed: 42})
	cli, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	info, err := fetchRESPInfo(cli, "web")
	if err != nil {
		t.Fatal(err)
	}
	if info.seed == nil || info.shards != shards {
		t.Fatalf("BF.INFO: seed %v, shards %d", info.seed, info.shards)
	}
	fam, err := hashes.NewDoubleHashing(int(info.k), uint64(info.shardBits), uint64(*info.seed))
	if err != nil {
		t.Fatal(err)
	}
	forger, err := attack.NewInstantForger(fam, []byte("http://evil.com/"), 1)
	if err != nil {
		t.Fatal(err)
	}
	items := make([][]byte, n)
	for i := range items {
		// Stride 1 from bases k apart: k fresh bits an item.
		if items[i], err = forger.ItemInShard(victim, shards, uint64(i)*uint64(info.k), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < n; lo += 100 {
		cli.SendItems("BF.MADD", "web", items[lo:lo+100])
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	for cli.Pending() > 0 {
		reply, err := cli.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if err := reply.Err(); err != nil {
			t.Fatal(err)
		}
		for _, e := range reply.Elems {
			if e.Int != 1 {
				t.Fatalf("a forged item was not new to the filter: %v", e.Format())
			}
		}
	}
	f, err := reg.Get("web")
	if err != nil {
		t.Fatal(err)
	}
	st := f.Store().Stats()
	for _, sh := range st.PerShard {
		wantCount, wantWeight := uint64(0), uint64(0)
		if sh.Shard == victim {
			wantCount, wantWeight = n, uint64(n*info.k)
		}
		if sh.Count != wantCount || sh.Weight != wantWeight {
			t.Errorf("shard %d: count %d weight %d, want %d, %d", sh.Shard, sh.Count, sh.Weight, wantCount, wantWeight)
		}
	}
	if fill := st.PerShard[victim].Fill; fill != 0.5 || st.Fill != fill/shards {
		t.Errorf("victim shard fill %v, store fill %v; want 0.5 and 0.5/%d", fill, st.Fill, shards)
	}
}
