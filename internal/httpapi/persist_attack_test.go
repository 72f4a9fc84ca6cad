package httpapi

import (
	"bytes"
	"evilbloom/internal/service"
	"net/http/httptest"
	"testing"

	"evilbloom/internal/attack"
	"evilbloom/internal/urlgen"
)

// The operational payoff of durability — and the reason it sharpens the
// paper's threat model: the §4.3 deletion adversary's work now SURVIVES a
// server restart. She evicts an honest victim from a live naive counting
// server (ghost covers inserted, crafted removals accepted), the server
// restarts from its data dir, and the induced false negative is still
// there, byte-identically: an operator cannot bounce the process to heal an
// adversarially damaged filter.
func TestRestartPreservesDeletionAttack(t *testing.T) {
	dir := t.TempDir()
	reg := service.NewRegistry()
	if _, err := reg.OpenDataDir(dir, service.SyncInterval); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryServer(reg))
	// The paper's Fig 3 geometry as one naive counting shard — the §4.3
	// single-filter setting, created through the wire API like any client.
	if code := doJSON(t, "PUT", ts.URL+"/v2/filters/blocklist",
		FilterSpec{Variant: "counting", Mode: "naive", Shards: 1, ShardBits: 3200, HashCount: 4, Seed: 7}, nil); code != 201 {
		t.Fatalf("create status %d", code)
	}
	client := attack.NewRemoteClient(ts.URL, "blocklist", nil)

	victim := []byte("http://honest.example.com/blocked-page")
	gen := urlgen.New(400)
	honest := make([][]byte, 50)
	for i := range honest {
		honest[i] = gen.Next()
	}
	if err := client.AddBatch(append(honest, victim)); err != nil {
		t.Fatal(err)
	}

	adv, err := attack.NewRemoteDeletionFromInfo(client, urlgen.New(11))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := adv.Evict(victim, 100000, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Evicted {
		t.Fatalf("campaign failed against the naive server: %+v", rep)
	}

	f, err := reg.Get("blocklist")
	if err != nil {
		t.Fatal(err)
	}
	preCrash, err := f.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Record the pre-restart membership of the honest control set (the
	// campaign's collateral damage included): restart must change none of it.
	preHonest := make([]bool, len(honest))
	for i, it := range honest {
		if preHonest[i], err = client.Test(it); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh registry recovers the filter from disk.
	reg2 := service.NewRegistry()
	if n, err := reg2.OpenDataDir(dir, service.SyncInterval); err != nil || n != 1 {
		t.Fatalf("reopen: n=%d err=%v", n, err)
	}
	defer reg2.Close() //nolint:errcheck
	f2, err := reg2.Get("blocklist")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := f2.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preCrash, restored) {
		t.Error("restart did not reproduce the polluted state byte-identically")
	}

	ts2 := httptest.NewServer(NewRegistryServer(reg2))
	defer ts2.Close()
	client2 := attack.NewRemoteClient(ts2.URL, "blocklist", nil)
	present, err := client2.Test(victim)
	if err != nil {
		t.Fatal(err)
	}
	if present {
		t.Error("restart healed the adversarially induced false negative")
	}
	for i, it := range honest {
		ok, err := client2.Test(it)
		if err != nil {
			t.Fatal(err)
		}
		if ok != preHonest[i] {
			t.Errorf("honest item %q flipped across the restart: was %v, now %v", it, preHonest[i], ok)
		}
	}
}
