package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/hashes"
	"evilbloom/internal/urlgen"
)

// A filter created today is layout 2 everywhere a layout is written down —
// meta.json, the snapshot envelope, the digest envelope — and stays it across
// compaction and a restart; nothing a caller can pass selects another.
func TestNewFilterRecordsLayoutV2(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Registry, *Filter) {
		reg := NewRegistry()
		if _, err := reg.OpenDataDir(dir, SyncAlways); err != nil {
			t.Fatal(err)
		}
		f, err := reg.Get("f")
		if err != nil {
			if f, err = reg.Create("f", testConfig(ModeNaive, 4)); err != nil {
				t.Fatal(err)
			}
		}
		return reg, f
	}
	frameVersion := func(frame []byte) uint16 { return binary.LittleEndian.Uint16(frame[8:]) }
	check := func(when string, f *Filter) {
		t.Helper()
		if got := f.Store().config().layout; got != hashes.LayoutV2 {
			t.Fatalf("%s: store is placement layout %d, want 2", when, got)
		}
		blob, err := os.ReadFile(filepath.Join(dir, "f", metaFileName))
		if err != nil {
			t.Fatal(err)
		}
		var meta map[string]any
		if err := json.Unmarshal(blob, &meta); err != nil {
			t.Fatal(err)
		}
		if meta["layout"] != float64(2) {
			t.Errorf("%s: meta.json layout = %v, want 2", when, meta["layout"])
		}
		snap, err := f.Store().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		digest, _, err := f.Store().DigestEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		if s, d := frameVersion(snap), frameVersion(digest); s != 2 || d != 2 {
			t.Errorf("%s: snapshot envelope version %d, digest envelope version %d, want 2, 2", when, s, d)
		}
	}

	gen := urlgen.New(9)
	items := make([][]byte, 300)
	for i := range items {
		items[i] = gen.Next()
	}
	reg, f := open()
	check("created", f)
	f.Store().AddBatch(items[:200])
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	f.Store().AddBatch(items[200:])
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg, f = open()
	defer reg.Close() //nolint:errcheck // test teardown
	check("recovered", f)
	for i, present := range f.Store().TestBatch(nil, items) {
		if !present {
			t.Fatalf("item %d lost across compaction and restart", i)
		}
	}
}

// A peer evaluates an exported digest through the same hashes.Placement the
// exporter places with, rebuilt from the envelope header alone: it must
// answer every query — hits, misses and the filter's own false positives —
// exactly as the exporting store does, under either layout and any shard
// count.
func TestDigestParityAcrossLayouts(t *testing.T) {
	for _, layout := range []hashes.Layout{hashes.LayoutV1, hashes.LayoutV2} {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("layout-%d-shards-%d", layout, shards), func(t *testing.T) {
				cfg := testConfig(ModeNaive, shards)
				cfg.Capacity, cfg.TargetFPR, cfg.layout = 2000, 0.05, layout
				s, err := NewSharded(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gen := urlgen.New(21)
				for i := 0; i < 2000; i++ {
					s.Add(gen.Next())
				}
				env, _, err := s.DigestEnvelope()
				if err != nil {
					t.Fatal(err)
				}
				pd, err := cachedigest.OpenEnvelope(env)
				if err != nil {
					t.Fatal(err)
				}
				info := pd.Info()
				if info.Layout != layout {
					t.Fatalf("digest says placement layout %d, the store is %d", info.Layout, layout)
				}
				if wantKey := layout == hashes.LayoutV1 && shards > 1; (info.RouteKey != [16]byte{}) != wantKey {
					t.Errorf("route key published: %v, want %v (only layout 1 routes by it)", !wantKey, wantKey)
				}
				probe, positives := urlgen.New(1), 0
				for i := 0; i < 6000; i++ {
					it := probe.Next()
					got, want := pd.Test(it), s.Test(it)
					if got != want {
						t.Fatalf("digest and filter disagree on %q: digest %v, filter %v", it, got, want)
					}
					if got {
						positives++
					}
				}
				if positives < 100 {
					t.Fatalf("only %d of 6000 probes present: the parity check saw too few positives to mean anything", positives)
				}
			})
		}
	}
}
