package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"evilbloom/internal/hashes"
)

// A filter's files are readable only while every key still routes to the
// same shard and lands on the same bits. Each fixture under testdata/ is a
// data directory written by a released binary (its README.md has the recipe
// and the numbers recorded just before shutdown); the current code must
// recover it exactly.
type dataDirFixture struct {
	dir    string // under testdata/, holding default/
	prefix string // items are <prefix>-0000 … <prefix>-0499
	layout hashes.Layout
	weight uint64
	shards [2]ShardStats
}

func (fx dataDirFixture) items() [][]byte {
	items := make([][]byte, 500)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("%s-%04d", fx.prefix, i))
	}
	return items
}

// recover opens a copy of the fixture and returns its one filter's store.
func (fx dataDirFixture) recover(t *testing.T) *Sharded {
	t.Helper()
	src := filepath.Join("testdata", fx.dir, "default")
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "default"), 0o700); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
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
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // test teardown
	f, err := reg.Get("default")
	if err != nil {
		t.Fatal(err)
	}
	return f.Store()
}

func (fx dataDirFixture) check(t *testing.T) {
	t.Helper()
	items := fx.items()
	store := fx.recover(t)
	if got := store.config().layout; got != fx.layout {
		t.Fatalf("recovered under placement layout %d, the directory is layout %d", got, fx.layout)
	}
	for i, present := range store.TestBatch(nil, items) {
		if !present {
			t.Errorf("item %q, acknowledged by the writer, is absent after recovery", items[i])
		}
	}
	checkShards := func(what string, st Stats) {
		t.Helper()
		if st.Count != 500 || st.Weight != fx.weight || len(st.PerShard) != len(fx.shards) {
			t.Fatalf("%s: count %d, weight %d over %d shards; the writer recorded 500, %d over 2", what, st.Count, st.Weight, len(st.PerShard), fx.weight)
		}
		for i, want := range fx.shards {
			if got := st.PerShard[i]; got.Count != want.Count || got.Weight != want.Weight {
				t.Errorf("%s: shard %d count %d weight %d, the writer recorded %d, %d", what, i, got.Count, got.Weight, want.Count, want.Weight)
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

var (
	// Written by PR 19's parent: no "layout" key in meta.json, so layout 1.
	hardenedPrePR19 = dataDirFixture{"hardened-pre-pr19", "pr19-fixture", hashes.LayoutV1, 3208,
		[2]ShardStats{{Shard: 0, Count: 251, Weight: 1624}, {Shard: 1, Count: 249, Weight: 1584}}}
	// Written by PR 22's parent, the last binary whose only layout was 1.
	naivePrePR22 = dataDirFixture{"naive-pre-pr22", "pr22-fixture", hashes.LayoutV1, 3190,
		[2]ShardStats{{Shard: 0, Count: 259, Weight: 1659}, {Shard: 1, Count: 241, Weight: 1531}}}
	// Written by PR 22 itself, for whichever change next touches placement.
	naiveV2 = dataDirFixture{"layout-v2/naive", "v2-fixture", hashes.LayoutV2, 3184,
		[2]ShardStats{{Shard: 0, Count: 235, Weight: 1506}, {Shard: 1, Count: 265, Weight: 1678}}}
	hardenedV2 = dataDirFixture{"layout-v2/hardened", "v2-fixture", hashes.LayoutV2, 3152,
		[2]ShardStats{{Shard: 0, Count: 265, Weight: 1655}, {Shard: 1, Count: 235, Weight: 1497}}}
)

func TestHardenedDataDirFromParentRecovers(t *testing.T) { hardenedPrePR19.check(t) }
func TestNaiveDataDirFromParentRecovers(t *testing.T)    { naivePrePR22.check(t) }
func TestLayoutV2DataDirsRecover(t *testing.T) {
	t.Run("naive", naiveV2.check)
	t.Run("hardened", hardenedV2.check)
}

// A snapshot envelope says which layout set its bits. Restored into a live
// filter of another layout it is refused, not read under the wrong rule;
// uploaded as a new filter it recreates a filter of its own layout, which
// reads every key back — under either layout, from the file a released
// binary served on GET …/snapshot.
func TestSnapshotEnvelopesKeepTheirLayout(t *testing.T) {
	for _, fx := range []dataDirFixture{naivePrePR22, naiveV2} {
		t.Run(fx.dir, func(t *testing.T) {
			env, err := os.ReadFile(filepath.Join("testdata", fx.dir, "snapshot.evb"))
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry()
			f, err := reg.CreateFromSnapshot("clone", bytes.NewReader(env))
			if err != nil {
				t.Fatal(err)
			}
			clone := f.Store()
			if got := clone.config().layout; got != fx.layout {
				t.Fatalf("the clone uses placement layout %d, the envelope is layout %d", got, fx.layout)
			}
			items := fx.items()
			for i, present := range clone.TestBatch(nil, items) {
				if !present {
					t.Fatalf("item %q is absent from the clone", items[i])
				}
			}
			if st := clone.Stats(); st.Count != 500 || st.Weight != fx.weight {
				t.Errorf("clone: count %d, weight %d; the writer recorded 500, %d", st.Count, st.Weight, fx.weight)
			}
			again, err := clone.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, env) {
				t.Error("the clone's own snapshot differs from the envelope it was created from")
			}

			// The same geometry, seed and route key under the other layout.
			cfg := clone.config()
			cfg.layout = hashes.LayoutV1 + hashes.LayoutV2 - fx.layout
			other, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := other.Restore(env); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("restoring a layout-%d envelope into a layout-%d filter: %v, want ErrSnapshotMismatch", fx.layout, cfg.layout, err)
			}
			if st := other.Stats(); st.Weight != 0 {
				t.Errorf("the refused restore left %d bits set", st.Weight)
			}
		})
	}
}
