package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/urlgen"
)

// persistCfg pins every secret so stores built from it are deterministic
// and rebuildable — what meta.json does for a real durable filter.
func persistCfg(variant Variant, mode Mode, width int, policy core.OverflowPolicy) Config {
	cfg := Config{
		Variant:   variant,
		Shards:    4,
		ShardBits: 2048,
		HashCount: 4,
		Mode:      mode,
		RouteKey:  []byte("fedcba9876543210"),
	}
	if mode == ModeNaive {
		cfg.Seed = 7
	} else {
		cfg.Key = []byte("0123456789abcdef")
	}
	if variant == VariantCounting {
		cfg.CounterWidth = width
		cfg.Overflow = policy
	}
	return cfg
}

// TestSnapshotRoundTripProperty: for every variant × counter width ×
// overflow policy × mode, a snapshot restored into a fresh store of the
// same configuration reproduces the exact state — byte-identical
// re-serialization, identical stats, identical membership.
func TestSnapshotRoundTripProperty(t *testing.T) {
	cases := []Config{
		persistCfg(VariantBloom, ModeNaive, 0, 0),
		persistCfg(VariantBloom, ModeHardened, 0, 0),
		persistCfg(VariantBlocked, ModeNaive, 0, 0),
		persistCfg(VariantBlocked, ModeHardened, 0, 0),
		persistCfg(VariantCounting, ModeNaive, 1, core.Saturate),
		persistCfg(VariantCounting, ModeNaive, 2, core.Wrap),
		persistCfg(VariantCounting, ModeNaive, 4, core.Wrap),
		persistCfg(VariantCounting, ModeNaive, 4, core.Saturate),
		persistCfg(VariantCounting, ModeNaive, 16, core.Wrap),
		persistCfg(VariantCounting, ModeHardened, 4, core.Saturate),
	}
	for _, cfg := range cases {
		name := fmt.Sprintf("%v-%v-w%d-%v", cfg.Variant, cfg.Mode, cfg.CounterWidth, cfg.Overflow)
		t.Run(name, func(t *testing.T) {
			a, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen := urlgen.New(99)
			items := make([][]byte, 400)
			for i := range items {
				items[i] = gen.Next()
			}
			a.AddBatch(items)
			// Duplicate adds push small counters toward (and past, for
			// width 1 and 2) overflow, exercising both policies' snapshots.
			a.AddBatch(items[:100])
			if a.Removable() {
				for _, it := range items[:50] {
					a.Remove(it) //nolint:errcheck // refusals are part of the state
				}
			}
			snap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
			again, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, again) {
				t.Error("restored store re-serializes differently")
			}
			if !reflect.DeepEqual(a.Stats(), b.Stats()) {
				t.Errorf("stats diverge:\n  a=%+v\n  b=%+v", a.Stats(), b.Stats())
			}
			for _, it := range items {
				if a.Test(it) != b.Test(it) {
					t.Fatalf("membership of %q diverges", it)
				}
			}
		})
	}
}

// A snapshot must be refused — with the right error class — when it is
// corrupt or disagrees with the target filter's immutable configuration:
// wrong variant (a counting blob fed to a bloom filter), width, seed.
func TestSnapshotRestoreRejections(t *testing.T) {
	counting := persistCfg(VariantCounting, ModeNaive, 4, core.Wrap)
	src, err := NewSharded(counting)
	if err != nil {
		t.Fatal(err)
	}
	src.Add([]byte("x"))
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restoreInto := func(cfg Config) error {
		dst, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dst.Restore(snap)
	}
	bloomCfg := persistCfg(VariantBloom, ModeNaive, 0, 0)
	if err := restoreInto(bloomCfg); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("counting blob into bloom filter: %v, want ErrSnapshotMismatch", err)
	}
	width8 := counting
	width8.CounterWidth = 8
	if err := restoreInto(width8); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("width mismatch: %v, want ErrSnapshotMismatch", err)
	}
	otherSeed := counting
	otherSeed.Seed = 8
	if err := restoreInto(otherSeed); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("seed mismatch: %v, want ErrSnapshotMismatch", err)
	}
	saturate := counting
	saturate.Overflow = core.Saturate
	if err := restoreInto(saturate); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("overflow mismatch: %v, want ErrSnapshotMismatch", err)
	}

	// Corruption: any flipped byte fails the checksum; truncation fails the
	// size check.
	dst, err := NewSharded(counting)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(snap)
	bad[len(bad)/3] ^= 0x01
	if err := dst.Restore(bad); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("bit flip: %v, want ErrSnapshotCorrupt", err)
	}
	if err := dst.Restore(snap[:len(snap)-3]); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("truncation: %v, want ErrSnapshotCorrupt", err)
	}

	// Hardened snapshots resolve no wire configuration: the keys stay home.
	hard, err := NewSharded(persistCfg(VariantBloom, ModeHardened, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	hsnap, err := hard.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SnapshotConfig(hsnap); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("SnapshotConfig on hardened envelope: %v, want ErrSnapshotMismatch", err)
	}
}

// A registry reopened from its data dir serves byte-identical filter state
// for both variants, and keeps journaling correctly across generations of
// restarts (the reopened log segment is appended to, not truncated).
func TestRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	bloomF, err := reg.Create("pages", persistCfg(VariantBloom, ModeNaive, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	countF, err := reg.Create("blocklist", persistCfg(VariantCounting, ModeNaive, 4, core.Wrap))
	if err != nil {
		t.Fatal(err)
	}
	gen := urlgen.New(5)
	items := make([][]byte, 300)
	for i := range items {
		items[i] = gen.Next()
	}
	bloomF.Store().AddBatch(items)
	countF.Store().AddBatch(items[:200])
	for _, it := range items[:40] {
		countF.Store().Remove(it) //nolint:errcheck
	}
	wantBloom, err := bloomF.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantCount, err := countF.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry()
	n, err := reg2.OpenDataDir(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d filters, want 2", n)
	}
	check := func(name string, want []byte) {
		t.Helper()
		f, err := reg2.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Store().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("filter %q restored to different bytes (got %d, want %d)", name, len(got), len(want))
		}
	}
	check("pages", wantBloom)
	check("blocklist", wantCount)

	// Post-restart mutations land in the reopened segment and survive a
	// second restart.
	f2, err := reg2.Get("blocklist")
	if err != nil {
		t.Fatal(err)
	}
	extra := []byte("post-restart-item")
	f2.Store().Add(extra)
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}
	reg3 := NewRegistry()
	if _, err := reg3.OpenDataDir(dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	f3, err := reg3.Get("blocklist")
	if err != nil {
		t.Fatal(err)
	}
	if !f3.Store().Test(extra) {
		t.Error("second restart lost a post-restart insertion")
	}
	if err := reg3.Close(); err != nil {
		t.Fatal(err)
	}
}

// tornOp is one effective mutation of the torn-write scenario.
type tornOp struct {
	remove bool
	item   []byte
}

// applyOps replays a recorded op sequence onto a fresh store of cfg and
// returns its snapshot — the reference state for crash-recovery checks.
func applyOps(t *testing.T, cfg Config, ops []tornOp) []byte {
	t.Helper()
	st, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.remove {
			if ok, err := st.Remove(op.item); err != nil || !ok {
				t.Fatalf("reference replay: remove %q refused (err=%v)", op.item, err)
			}
		} else {
			st.Add(op.item)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestTornWriteRecoversLongestPrefix truncates the operation log at every
// byte offset of its final record and asserts replay recovers exactly the
// pre-crash prefix: all records before the torn one, nothing of it.
func TestTornWriteRecoversLongestPrefix(t *testing.T) {
	cfg := persistCfg(VariantCounting, ModeNaive, 4, core.Saturate)
	dir := t.TempDir()
	reg := NewRegistry()
	if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	f, err := reg.Create("torn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ops []tornOp
	for i := 0; i < 40; i++ {
		it := []byte(fmt.Sprintf("torn-item-%d", i))
		f.Store().Add(it)
		ops = append(ops, tornOp{item: it})
	}
	// End the log with an accepted removal, so the torn record exercises
	// the remove path too.
	last := []byte("torn-item-7")
	if ok, err := f.Store().Remove(last); err != nil || !ok {
		t.Fatalf("final remove refused (err=%v)", err)
	}
	ops = append(ops, tornOp{remove: true, item: last})
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "torn", walName(0))
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the record boundaries to find where the final record begins.
	off, lastStart := 0, 0
	for off < len(wal) {
		_, n := decodeRecord(wal[off:])
		if n == 0 {
			t.Fatalf("intact log does not parse at offset %d", off)
		}
		lastStart = off
		off += n
	}
	if off != len(wal) {
		t.Fatalf("log has %d trailing bytes", len(wal)-off)
	}

	prefixSnap := applyOps(t, cfg, ops[:len(ops)-1])
	fullSnap := applyOps(t, cfg, ops)
	meta, err := os.ReadFile(filepath.Join(dir, "torn", metaFileName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := lastStart; cut <= len(wal); cut++ {
		crashDir := filepath.Join(t.TempDir(), "data")
		if err := os.MkdirAll(filepath.Join(crashDir, "torn"), 0o700); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, "torn", metaFileName), meta, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, "torn", walName(0)), wal[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		reg2 := NewRegistry()
		if _, err := reg2.OpenDataDir(crashDir, SyncNever); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		f2, err := reg2.Get("torn")
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		got, err := f2.Store().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := prefixSnap
		if cut == len(wal) {
			want = fullSnap
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut at %d of %d: recovered state is not the pre-crash prefix", cut, len(wal))
		}
		if err := reg2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Compaction installs a new snapshot generation and rotates the log; a
// corrupted newest snapshot falls back to the previous generation's chain
// with no data loss.
func TestCompactAndCorruptSnapshotFallback(t *testing.T) {
	cfg := persistCfg(VariantCounting, ModeNaive, 4, core.Wrap)
	dir := t.TempDir()
	reg := NewRegistry()
	if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	f, err := reg.Create("c", cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := urlgen.New(17)
	first := make([][]byte, 120)
	for i := range first {
		first[i] = gen.Next()
	}
	f.Store().AddBatch(first)
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	if g := f.Generation(); g != 1 {
		t.Fatalf("generation %d after first compact, want 1", g)
	}
	second := make([][]byte, 80)
	for i := range second {
		second[i] = gen.Next()
	}
	f.Store().AddBatch(second)
	want, err := f.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() []byte {
		t.Helper()
		reg2 := NewRegistry()
		if _, err := reg2.OpenDataDir(dir, SyncNever); err != nil {
			t.Fatal(err)
		}
		f2, err := reg2.Get("c")
		if err != nil {
			t.Fatal(err)
		}
		got, err := f2.Store().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := reg2.Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := reopen(); !bytes.Equal(got, want) {
		t.Fatal("clean reopen diverged from pre-shutdown state")
	}

	// Corrupt the newest snapshot: recovery must fall back to the log
	// chain from the previous generation and still reach the same state.
	snapPath := filepath.Join(dir, "c", snapName(1))
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(snapPath, blob, 0o600); err != nil {
		t.Fatal(err)
	}
	if got := reopen(); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery after snapshot corruption diverged")
	}
}

// A failed or oversized restore must refund its budget reservation — the
// fill-or-rollback pattern of the PR 2 create-race test, applied to boot.
func TestRestoreBudgetRollback(t *testing.T) {
	writeMeta := func(t *testing.T, dir, name string, m persistedMeta) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, name), 0o700); err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name, metaFileName), blob, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	routeKey := hex.EncodeToString([]byte("fedcba9876543210"))

	// Corrupt beyond recovery: a snapshot that fails its checksum and no
	// generation-0 log to rebuild from. The open fails; nothing stays
	// reserved or charged.
	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		writeMeta(t, dir, "broken", persistedMeta{
			Version: 1, Variant: "counting", Mode: "naive", Shards: 2,
			ShardBits: 512, HashCount: 4, Seed: 7, CounterWidth: 4,
			Overflow: "wrap", RouteKeyHex: routeKey,
		})
		if err := os.WriteFile(filepath.Join(dir, "broken", snapName(0)), []byte("not a snapshot"), 0o600); err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		if _, err := reg.OpenDataDir(dir, SyncNever); err == nil {
			t.Fatal("unrecoverable filter opened cleanly")
		}
		if reg.bits != 0 || len(reg.reserved) != 0 {
			t.Errorf("failed restore left %d bits charged, %d reservations", reg.bits, len(reg.reserved))
		}
		// The registry remains usable: the name is free again.
		if _, err := reg.Get("broken"); !errors.Is(err, ErrFilterNotFound) {
			t.Errorf("half-recovered filter is visible: %v", err)
		}
	})

	// Oversized geometry in the meta file: rejected before any reservation
	// or allocation, like a crafted PUT.
	t.Run("oversized", func(t *testing.T) {
		dir := t.TempDir()
		writeMeta(t, dir, "huge", persistedMeta{
			Version: 1, Variant: "bloom", Mode: "naive", Shards: 1,
			ShardBits: MaxFilterBits + 1, HashCount: 4, Seed: 7, RouteKeyHex: routeKey,
		})
		reg := NewRegistry()
		if _, err := reg.OpenDataDir(dir, SyncNever); err == nil {
			t.Fatal("oversized persisted filter opened cleanly")
		}
		if reg.bits != 0 || len(reg.reserved) != 0 {
			t.Errorf("oversized restore left %d bits charged, %d reservations", reg.bits, len(reg.reserved))
		}
	})

	// Budget exhausted at boot: the reservation is refused and rolled back,
	// exactly like a racing create.
	t.Run("budget", func(t *testing.T) {
		dir := t.TempDir()
		seed := NewRegistry()
		if _, err := seed.OpenDataDir(dir, SyncNever); err != nil {
			t.Fatal(err)
		}
		if _, err := seed.Create("ok", persistCfg(VariantBloom, ModeNaive, 0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := seed.Close(); err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		reg.bits = MaxTotalBits // pre-charged: no budget left
		_, err := reg.OpenDataDir(dir, SyncNever)
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("open with exhausted budget: %v, want ErrBudgetExhausted", err)
		}
		if reg.bits != MaxTotalBits || len(reg.reserved) != 0 {
			t.Errorf("failed boot reservation not rolled back: %d bits, %d reservations", reg.bits, len(reg.reserved))
		}
	})
}

// Deleting a durable filter removes its directory; the name is free for a
// fresh (empty) filter, also after a restart.
func TestDurableDeleteRemovesState(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	f, err := reg.Create("d", persistCfg(VariantBloom, ModeNaive, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	f.Store().Add([]byte("x"))
	if err := reg.Delete("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "d")); !os.IsNotExist(err) {
		t.Errorf("filter directory survives delete: %v", err)
	}
	f2, err := reg.Create("d", persistCfg(VariantBloom, ModeNaive, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if f2.Store().Test([]byte("x")) {
		t.Error("re-created filter inherited deleted state")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	n, err := reg2.OpenDataDir(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d filters, want 1 (the re-created one)", n)
	}
}

// A crafted snapshot header with an enormous (but self-consistent) geometry
// must be rejected by the size checks before the payload buffer is
// allocated or a byte of payload is read — the control-plane OOM guard
// extended to the create-from-snapshot path.
func TestCreateFromSnapshotRejectsOversizedHeaderEarly(t *testing.T) {
	h := snapshotHeader{
		layout:    currentLayout,
		variant:   VariantBloom,
		mode:      ModeNaive,
		seed:      1,
		shards:    1,
		shardBits: 1 << 40, // ~137 GB of payload if believed
		k:         4,
	}
	want, err := h.expectedPayloadLen()
	if err != nil {
		t.Fatal(err)
	}
	h.payloadLen = want
	hdr := make([]byte, snapshotHeaderLen)
	h.encode(hdr)

	reg := NewRegistry()
	// The reader holds ONLY the header: if the implementation tried to
	// buffer the payload it would fail with a corrupt-read error instead of
	// the storage-limit rejection we demand here.
	_, err = reg.CreateFromSnapshot("huge", bytes.NewReader(hdr))
	if err == nil {
		t.Fatal("oversized snapshot header accepted")
	}
	if errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("oversized header reached the payload read: %v", err)
	}
	if reg.bits != 0 || len(reg.reserved) != 0 {
		t.Errorf("rejected snapshot left %d bits charged, %d reservations", reg.bits, len(reg.reserved))
	}
}

// Adopting onto a taken name must refuse WITHOUT touching the existing
// filter's durable directory — the rollback path owns only what it created.
func TestAdoptTakenNameLeavesDurableStateAlone(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	f, err := reg.Create("x", persistCfg(VariantCounting, ModeNaive, 4, core.Wrap))
	if err != nil {
		t.Fatal(err)
	}
	f.Store().Add([]byte("precious"))

	other, err := NewSharded(persistCfg(VariantBloom, ModeNaive, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Adopt("x", other); !errors.Is(err, ErrFilterExists) {
		t.Fatalf("Adopt onto taken name: %v, want ErrFilterExists", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x", metaFileName)); err != nil {
		t.Fatalf("failed Adopt damaged the live filter's directory: %v", err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	if _, err := reg2.OpenDataDir(dir, SyncNever); err != nil {
		t.Fatal(err)
	}
	f2, err := reg2.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if !f2.Store().Test([]byte("precious")) {
		t.Error("filter state lost after refused Adopt + restart")
	}
}
