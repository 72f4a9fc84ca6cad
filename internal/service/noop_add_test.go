package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/urlgen"
)

// walSize drains f's journal buffer into its current segment and returns
// the segment's size on disk.
func walSize(t *testing.T, f *Filter) int64 {
	t.Helper()
	p := f.persist
	p.flush()
	p.mu.Lock()
	gen, err := p.gen, p.err
	p.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(p.dir, walName(gen)))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// writeState is everything an add may write: the journal, the generation
// behind the digest ETag, the count and the weight.
type writeState struct {
	wal                int64
	gen, count, weight uint64
}

func stateOf(t *testing.T, f *Filter) writeState {
	t.Helper()
	st := f.Store()
	return writeState{walSize(t, f), st.Generation(), st.Count(), st.Stats().Weight}
}

// readdAll adds items again through each insert entry point — Add,
// AddBatch and TestAndAddBatch — and reports the novelty answers.
func readdAll(st *Sharded, items [][]byte) []bool {
	for _, it := range items {
		st.Add(it)
	}
	st.AddBatch(items)
	return st.TestAndAddBatch(nil, items)
}

// openTestDir opens a registry over dir with its journal written only by
// explicit flushes.
func openTestDir(t *testing.T, dir string) *Registry {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	return reg
}

// On bloom and blocked filters an add of an item already present changes
// no bit, so it writes nothing: no journal record, no generation (the
// digest ETag holds still), no count, no weight — and every entry point
// answers that the item was not new. A restart then replays to the same
// bytes. Its counting twin still journals and counts every repeat, because
// each one moves the counters.
func TestNoOpAddsWriteNothing(t *testing.T) {
	const n = 300
	gen := urlgen.New(43)
	items := make([][]byte, n)
	for i := range items {
		items[i] = gen.Next()
	}
	for _, variant := range []Variant{VariantBloom, VariantBlocked} {
		for _, mode := range []Mode{ModeNaive, ModeHardened} {
			t.Run(fmt.Sprintf("%v-%v", variant, mode), func(t *testing.T) {
				dir := t.TempDir()
				reg := openTestDir(t, dir)
				f, err := reg.Create("f", persistCfg(variant, mode, 0, 0))
				if err != nil {
					t.Fatal(err)
				}
				f.Store().AddBatch(items)
				before := stateOf(t, f)
				if before.count == 0 || before.wal == 0 {
					t.Fatalf("the first adds wrote nothing: %+v", before)
				}
				for i, novel := range readdAll(f.Store(), items) {
					if novel {
						t.Fatalf("re-add of %q answered novel", items[i])
					}
				}
				if after := stateOf(t, f); after != before {
					t.Fatalf("repeat adds wrote: before %+v, after %+v", before, after)
				}
				want, err := f.Store().Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := reg.Close(); err != nil {
					t.Fatal(err)
				}
				reg2 := openTestDir(t, dir)
				defer reg2.Close() //nolint:errcheck // test teardown
				f2, err := reg2.Get("f")
				if err != nil {
					t.Fatal(err)
				}
				got, err := f2.Store().Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Error("the restarted filter re-snapshots differently")
				}
				if c := f2.Store().Count(); c != before.count {
					t.Errorf("restart recovered count %d, want %d", c, before.count)
				}
			})
		}
	}

	t.Run("counting-twin", func(t *testing.T) {
		reg := openTestDir(t, t.TempDir())
		defer reg.Close() //nolint:errcheck // test teardown
		f, err := reg.Create("f", persistCfg(VariantCounting, ModeNaive, 4, core.Saturate))
		if err != nil {
			t.Fatal(err)
		}
		f.Store().AddBatch(items)
		before := stateOf(t, f)
		for i, novel := range readdAll(f.Store(), items) {
			if novel {
				t.Fatalf("re-add of %q answered novel", items[i])
			}
		}
		after := stateOf(t, f)
		// Each of the 3n repeats is one record: a 4-byte length, the op,
		// the item and a 4-byte CRC.
		var logged int64
		for _, it := range items {
			logged += 3 * int64(4+1+len(it)+4)
		}
		if after.wal-before.wal != logged || after.count-before.count != 3*n || after.gen-before.gen != 3*n {
			t.Errorf("repeat adds on a counting filter: before %+v, after %+v; want %d more log bytes, count and generation +%d", before, after, logged, 3*n)
		}
	})
}

// An older binary journaled every add, repeats included, and counted them
// in its snapshots. Replaying such a log now skips the repeats: the bits are
// what they were and the count is that of the distinct items. A count
// carried inside such a snapshot restores as it is, because it is part of
// the state a snapshot round-trips byte for byte.
func TestRepeatJournaledAddsRecoverDistinctCount(t *testing.T) {
	cfg := persistCfg(VariantBloom, ModeNaive, 0, 0)
	a, b := []byte("http://a.example/"), []byte("http://b.example/")
	var seg []byte
	for _, it := range [][]byte{a, b, a, a} {
		seg = append(seg, walRecord(walRecordAdd, it)...)
	}
	dir := t.TempDir()
	writeLogOnlyFilter(t, dir, "f", cfg, seg)
	reg := openTestDir(t, dir)
	defer reg.Close() //nolint:errcheck // test teardown
	f, err := reg.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.AddBatch([][]byte{a, b})
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("replaying repeat adds set different bits")
	}
	if c := f.Store().Count(); c != 2 {
		t.Errorf("recovered count %d, want 2 distinct items", c)
	}

	// The old insert step applied and counted every add, new or not.
	sh, g := ref.place1(a)
	sh.backend.AddIndexes(g.idx)
	ref.ungroup(g)
	old, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.restore(old); err != nil {
		t.Fatal(err)
	}
	again, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Count(); c != 3 || !bytes.Equal(again, old) {
		t.Errorf("a snapshot counting a repeat restored to count %d (want its 3), byte-identical %v", c, bytes.Equal(again, old))
	}
}
