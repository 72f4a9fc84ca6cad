package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"evilbloom/internal/core"
)

// A graceful shutdown leaves a snapshot instead of a log to replay:
// Registry.Close compacts a durable filter whose live log segment holds at
// least as many bytes as its snapshot would, and no other.

// shutdownConfigs are every variant, and both counting overflow policies,
// under both modes.
func shutdownConfigs() []Config {
	var out []Config
	for _, mode := range []Mode{ModeNaive, ModeHardened} {
		out = append(out,
			persistCfg(VariantBloom, mode, 0, 0),
			persistCfg(VariantBlocked, mode, 0, 0),
			persistCfg(VariantCounting, mode, 4, core.Saturate),
			persistCfg(VariantCounting, mode, 4, core.Wrap))
	}
	return out
}

func cfgName(cfg Config) string {
	return fmt.Sprintf("%v-%v-w%d-%v", cfg.Variant, cfg.Mode, cfg.CounterWidth, cfg.Overflow)
}

// shutdown is a durable filter "f" taken to generation 1 by an explicit
// Compact, then given `more` adds (and, on counting filters, removals) and
// closed.
type shutdown struct {
	dir  string    // the data directory
	reg  *Registry // closed
	f    *Filter
	want []byte // the snapshot just before Close
	err  error  // what Close returned
}

func closeAfter(t *testing.T, cfg Config, more int, beforeClose func(*Filter)) shutdown {
	t.Helper()
	sd := shutdown{dir: t.TempDir(), reg: NewRegistry()}
	if _, err := sd.reg.OpenDataDir(sd.dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	f, err := sd.reg.Create("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd.f = f
	item := func(i int) []byte { return []byte(fmt.Sprintf("close-item-%04d", i)) }
	for i := 0; i < 50; i++ {
		f.Store().Add(item(i))
	}
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 50+more; i++ {
		f.Store().Add(item(i))
	}
	if cfg.Variant == VariantCounting {
		for i := 0; i < min(more, 10); i++ {
			if ok, err := f.Store().Remove(item(i)); err != nil || !ok {
				t.Fatalf("removing %s: %v, %v", item(i), ok, err)
			}
		}
	}
	if beforeClose != nil {
		beforeClose(f)
	}
	if sd.want, err = f.Store().Snapshot(); err != nil {
		t.Fatal(err)
	}
	sd.err = sd.reg.Close()
	return sd
}

// path names a file of the filter's directory.
func (sd shutdown) path(name string) string { return filepath.Join(sd.dir, "f", name) }

// reboot opens the data directory again and requires the pre-close bytes.
func (sd shutdown) reboot(t *testing.T) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.OpenDataDir(sd.dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	defer reg.Close() //nolint:errcheck // test teardown
	f, err := reg.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sd.want) {
		t.Fatal("the reboot does not snapshot to the bytes the filter held before Close")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// A log that outweighs the snapshot is compacted at Close, and the next
// boot restores that snapshot with nothing to replay: it needs no earlier
// generation at all.
func TestCloseCompactsOutweighingLog(t *testing.T) {
	for _, cfg := range shutdownConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			sd := closeAfter(t, cfg, 400, nil)
			if sd.err != nil {
				t.Fatal(sd.err)
			}
			if g := sd.f.Generation(); g != 2 {
				t.Fatalf("generation %d after Close, want 2", g)
			}
			if fileSize(t, sd.path(walName(1))) < sd.f.Store().snapshotLen() {
				t.Fatal("the compacted log was smaller than the snapshot")
			}
			if n := fileSize(t, sd.path(walName(2))); n != 0 {
				t.Fatalf("the live segment after Close holds %d bytes, want 0", n)
			}
			if n := fileSize(t, sd.path(snapName(2))); n != sd.f.Store().snapshotLen() {
				t.Fatalf("snapshot is %d bytes, snapshotLen says %d", n, sd.f.Store().snapshotLen())
			}
			for _, name := range []string{snapName(1), walName(1)} {
				if err := os.Remove(sd.path(name)); err != nil {
					t.Fatal(err)
				}
			}
			sd.reboot(t)
		})
	}
}

// A log smaller than the snapshot is left alone: the generation holds and
// the next boot replays it onto the previous snapshot.
func TestCloseKeepsSmallLog(t *testing.T) {
	for _, cfg := range shutdownConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			sd := closeAfter(t, cfg, 5, nil)
			if sd.err != nil {
				t.Fatal(sd.err)
			}
			if g := sd.f.Generation(); g != 1 {
				t.Fatalf("generation %d after Close, want 1", g)
			}
			if _, err := os.Stat(sd.path(snapName(2))); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Close wrote %s for a small log (stat: %v)", snapName(2), err)
			}
			if fileSize(t, sd.path(walName(1))) == 0 {
				t.Fatal("the small log is empty; the reboot would replay nothing")
			}
			sd.reboot(t)
		})
	}
}

// The snapshot Close installs is an ordinary generation: lost before its
// rename (a crash) or corrupted, the boot falls back to the previous
// generation's snapshot and replays its log chain to the same state.
func TestCloseCompactionFallsBack(t *testing.T) {
	for _, cfg := range shutdownConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			for _, damage := range []struct {
				name string
				do   func(path string) error
			}{
				{"deleted", os.Remove},
				{"corrupted", func(path string) error {
					blob, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					blob[len(blob)/2] ^= 0xff
					return os.WriteFile(path, blob, 0o600)
				}},
			} {
				t.Run(damage.name, func(t *testing.T) {
					sd := closeAfter(t, cfg, 400, nil)
					if sd.err != nil || sd.f.Generation() != 2 {
						t.Fatalf("Close: generation %d, err %v; want 2, nil", sd.f.Generation(), sd.err)
					}
					if err := damage.do(sd.path(snapName(2))); err != nil {
						t.Fatal(err)
					}
					sd.reboot(t)
				})
			}
		})
	}
}

// A journal that has failed is not compacted: Close returns its error and
// writes no snapshot, and the log it synced before failing stays the
// authority.
func TestCloseSkipsFailedJournal(t *testing.T) {
	injected := errors.New("injected journal failure")
	for _, cfg := range shutdownConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			sd := closeAfter(t, cfg, 400, func(f *Filter) {
				p := f.persist
				p.flush()
				p.mu.Lock()
				p.err = injected
				p.mu.Unlock()
			})
			if !errors.Is(sd.err, injected) {
				t.Fatalf("Close returned %v, want the journal's error", sd.err)
			}
			if g := sd.f.Generation(); g != 1 {
				t.Fatalf("generation %d after Close, want 1", g)
			}
			if _, err := os.Stat(sd.path(snapName(2))); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Close compacted a failed journal (stat: %v)", err)
			}
			sd.reboot(t)
		})
	}
}

// A second Close finds the journal closed and compacts nothing.
func TestSecondCloseDoesNotCompact(t *testing.T) {
	for _, cfg := range shutdownConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			sd := closeAfter(t, cfg, 400, nil)
			if sd.err != nil || sd.f.Generation() != 2 {
				t.Fatalf("Close: generation %d, err %v; want 2, nil", sd.f.Generation(), sd.err)
			}
			before := dirContents(t, sd.dir)
			sd.reg.Close() //nolint:errcheck // the journal is closed; only the directory matters
			if g := sd.f.Generation(); g != 2 {
				t.Fatalf("generation %d after a second Close, want 2", g)
			}
			after := dirContents(t, sd.dir)
			if len(after) != len(before) {
				t.Fatalf("a second Close changed the directory: %d files, then %d", len(before), len(after))
			}
			for name, data := range before {
				if after[name] != data {
					t.Fatalf("a second Close rewrote %s", filepath.Base(name))
				}
			}
			sd.reboot(t)
		})
	}
}

// Every data directory an older binary wrote compacts under the current
// code, at Close when its log outweighs its snapshot and on request
// otherwise, and reboots to the same bytes: the snapshot is written in the
// directory's own layout and counter packing.
func TestFixtureDataDirsCompactAtClose(t *testing.T) {
	fixtures := []dataDirFixture{hardenedPrePR19, naivePrePR22, naiveV2, hardenedV2, hardenedV3}
	for _, width := range []int{3, 4, 5} {
		fixtures = append(fixtures, countingContiguous(width))
	}
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			dir := fx.copyDir(t)
			var want []byte
			// cycle boots the directory, requires the bytes of the first
			// boot, compacts on request, and closes; it returns the
			// generation before and after Close and the snapshot's length.
			cycle := func(compact bool) (before, after uint64, snapLen int64) {
				t.Helper()
				reg := NewRegistry()
				if n, err := reg.OpenDataDir(dir, SyncNever); err != nil || n != 1 {
					t.Fatalf("OpenDataDir recovered %d filters, err %v; want 1, nil", n, err)
				}
				f, err := reg.Get("default")
				if err != nil {
					t.Fatal(err)
				}
				if got := f.Store().config().layout; got != fx.layout {
					t.Fatalf("booted under layout %d, the directory is layout %d", got, fx.layout)
				}
				got, err := f.Store().Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatal("the compacted fixture reboots to different bytes")
				}
				if compact {
					if err := f.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				before = f.Generation()
				if err := reg.Close(); err != nil {
					t.Fatal(err)
				}
				return before, f.Generation(), f.Store().snapshotLen()
			}
			walLen := fileSize(t, filepath.Join(dir, "default", walName(1)))
			before, after, snapLen := cycle(false)
			if compacted := after != before; compacted != (walLen >= snapLen) {
				t.Fatalf("Close took generation %d to %d on a %d-byte log and a %d-byte snapshot",
					before, after, walLen, snapLen)
			}
			if before, after, _ := cycle(true); after != before {
				t.Fatalf("Close after a compaction took generation %d to %d", before, after)
			}
			cycle(false)
		})
	}
}
