package service

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// A hardened filter's files are readable only while every key still routes
// to the same shard and lands on the same bits. The fixture was written by
// the binary built from PR 19's parent (see its README.md for the recipe and
// the recorded numbers); the current code must recover it exactly.
func TestHardenedDataDirFromParentRecovers(t *testing.T) {
	const fixture = "testdata/hardened-pre-pr19/default"
	recorded := [2]ShardStats{
		{Shard: 0, Count: 251, Weight: 1624},
		{Shard: 1, Count: 249, Weight: 1584},
	}
	items := make([][]byte, 500)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("pr19-fixture-%04d", i))
	}

	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "default"), 0o700); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "default", e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	reg := NewRegistry()
	if n, err := reg.OpenDataDir(dir, SyncNever); err != nil || n != 1 {
		t.Fatalf("OpenDataDir recovered %d filters, err %v; want 1, nil", n, err)
	}
	defer reg.Close() //nolint:errcheck // test teardown
	f, err := reg.Get("default")
	if err != nil {
		t.Fatal(err)
	}
	store := f.Store()
	for i, present := range store.TestBatch(nil, items) {
		if !present {
			t.Errorf("item %q, acknowledged by the parent, is absent after recovery", items[i])
		}
	}
	checkShards := func(what string, st Stats) {
		t.Helper()
		if st.Count != 500 || st.Weight != 3208 || len(st.PerShard) != len(recorded) {
			t.Fatalf("%s: count %d, weight %d over %d shards; the parent recorded 500, 3208 over 2", what, st.Count, st.Weight, len(st.PerShard))
		}
		for i, want := range recorded {
			if got := st.PerShard[i]; got.Count != want.Count || got.Weight != want.Weight {
				t.Errorf("%s: shard %d count %d weight %d, the parent recorded %d, %d", what, i, got.Count, got.Weight, want.Count, want.Weight)
			}
		}
	}
	checkShards("recovered", store.Stats())

	// The same keys through today's AddBatch must set the very same bits:
	// equal per-shard weights are what fp_rate shows only statistically.
	fresh, err := NewSharded(store.config())
	if err != nil {
		t.Fatal(err)
	}
	fresh.AddBatch(items)
	checkShards("rebuilt", fresh.Stats())
	want, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("a fresh filter fed the same items differs bit for bit from the recovered one")
	}
}
