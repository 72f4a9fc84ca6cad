package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/core"
	"evilbloom/internal/urlgen"
)

// restore overwrites s's occupancy state from an envelope in memory, as boot
// recovery does from a file: restorer is the only way in, so a failed
// restore may leave s half-written.
func (s *Sharded) restore(data []byte) error {
	_, _, err := cachedigest.ReadFrame(bytes.NewReader(data), false, s.restorer, snapshotFrame)
	return err
}

// filledSnapshot returns a store of cfg holding n generated items, and its
// snapshot.
func filledSnapshot(t *testing.T, cfg Config, n int) (*Sharded, []byte) {
	t.Helper()
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := urlgen.New(11)
	for i := 0; i < n; i++ {
		s.Add(gen.Next())
	}
	env, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s, env
}

// brokenUploads are envelopes derived from env that a restore reaches only
// by streaming (each header is sound): a wrong CRC, cuts at several depths
// of the payload, a trailing byte, and a blob length the geometry denies.
func brokenUploads(env []byte) map[string][]byte {
	const hdr = 72
	reseal := func(b []byte) []byte { return snapshotFrame.Finish(b[:len(b)-4]) }
	rows := map[string][]byte{
		"crc last byte":  append(bytes.Clone(env[:len(env)-1]), env[len(env)-1]^0x01),
		"trailing byte":  append(bytes.Clone(env), 0),
		"cut in length":  env[:hdr+3],
		"cut in blob":    env[:hdr+8+5],
		"cut mid":        env[:len(env)/2],
		"cut before crc": env[:len(env)-5],
		"cut in crc":     env[:len(env)-2],
	}
	blobLen := binary.LittleEndian.Uint64(env[hdr:])
	lying := bytes.Clone(env)
	binary.LittleEndian.PutUint64(lying[hdr+8+int(blobLen):], blobLen+8) // shard 1
	rows["blob length"] = reseal(lying)
	return rows
}

// An upload that fails while it streams — the checksum included, which is
// known only after every shard is written — leaves no filter, no budget and,
// on a durable registry, no directory; the HTTP twin is
// httpapi.TestCreateFromSnapshotStreamFailures.
func TestCreateFromSnapshotStreamFailures(t *testing.T) {
	_, env := filledSnapshot(t, persistCfg(VariantBloom, ModeNaive, 0, 0), 200)
	for _, durable := range []bool{false, true} {
		reg := NewRegistry()
		dir := t.TempDir()
		if durable {
			if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := reg.Create("bystander", persistCfg(VariantBloom, ModeNaive, 0, 0)); err != nil {
			t.Fatal(err)
		}
		before, _ := reg.StorageInUse()
		for name, body := range brokenUploads(env) {
			t.Run(fmt.Sprintf("durable=%v/%s", durable, name), func(t *testing.T) {
				_, err := reg.CreateFromSnapshot("up", bytes.NewReader(body))
				if !errors.Is(err, ErrSnapshotCorrupt) {
					t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
				}
				if _, err := reg.Get("up"); !errors.Is(err, ErrFilterNotFound) {
					t.Errorf("failed upload left a filter: %v", err)
				}
				if bits, n := reg.StorageInUse(); bits != before || n != 0 {
					t.Errorf("storage in use %d bits and %d reservations, was %d and 0", bits, n, before)
				}
				if _, err := os.Stat(filepath.Join(dir, "up")); !os.IsNotExist(err) {
					t.Errorf("failed upload left its directory: %v", err)
				}
			})
		}
		// The same name still takes the sound envelope, byte for byte.
		f, err := reg.CreateFromSnapshot("up", bytes.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := f.Store().Snapshot(); !bytes.Equal(got, env) {
			t.Error("upload after the failures does not snapshot back to itself")
		}
		if durable {
			if got, err := os.ReadFile(filepath.Join(dir, "up", snapName(0))); err != nil || !bytes.Equal(got, env) {
				t.Errorf("generation 0 is not the upload byte for byte (%v)", err)
			}
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// The only snapshot of a directory fails its checksum after its shards are
// written (restore streams); the generation-0 log survives. Replay must
// reset the store before replaying the log, so recovery equals a log-only
// replay — not the corrupt snapshot's bits with the log on top.
func TestReplayResetsAfterStreamedChecksumFailure(t *testing.T) {
	for _, cfg := range []Config{
		persistCfg(VariantBloom, ModeNaive, 0, 0),
		persistCfg(VariantCounting, ModeHardened, 4, core.Saturate),
	} {
		t.Run(cfg.Variant.String(), func(t *testing.T) {
			dir := t.TempDir()
			reg := NewRegistry()
			if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
				t.Fatal(err)
			}
			f, err := reg.Create("f", cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen := urlgen.New(3)
			for i := 0; i < 50; i++ {
				f.Store().Add(gen.Next())
			}
			want, err := f.Store().Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Other state of the same configuration, as generation 0's snapshot
			// with its CRC broken.
			other, err := NewSharded(f.Store().config())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				other.Add([]byte(fmt.Sprintf("other-%d", i)))
			}
			bad, err := other.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			bad[len(bad)-1] ^= 0xff
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "f", snapName(0)), bad, 0o600); err != nil {
				t.Fatal(err)
			}

			reg2 := NewRegistry()
			if _, err := reg2.OpenDataDir(dir, SyncNever); err != nil {
				t.Fatal(err)
			}
			defer reg2.Close() //nolint:errcheck
			f2, err := reg2.Get("f")
			if err != nil {
				t.Fatal(err)
			}
			got, err := f2.Store().Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("recovery differs from a log-only replay: the corrupt snapshot's state leaked through")
			}
			if st, wst := f2.Store().Stats(), f.Store().Stats(); st.Count != wst.Count || st.Weight != wst.Weight {
				t.Errorf("recovered count/weight %d/%d, want %d/%d", st.Count, st.Weight, wst.Count, wst.Weight)
			}
		})
	}
}

// Restore and upload accept only what Snapshot writes: a sound CRC over a
// non-canonical encoding is still ErrSnapshotCorrupt.
func TestRestoreRefusesNonCanonicalEnvelopes(t *testing.T) {
	bloomCfg := persistCfg(VariantBloom, ModeNaive, 0, 0)
	bloomCfg.ShardBits = 2000 // the last word of each shard is partial
	counting3 := persistCfg(VariantCounting, ModeNaive, 3, core.Wrap)
	counting3.ShardBits = 2001 // 6003 stream bits: slack in the last word
	counting4 := persistCfg(VariantCounting, ModeNaive, 4, core.Wrap)
	counting4.ShardBits = 2001
	hardened := persistCfg(VariantBloom, ModeHardened, 0, 0)
	reseal := func(b []byte) []byte { return snapshotFrame.Finish(b[:len(b)-4]) }
	// The envelope's last payload byte, env[len(env)-5], is the top byte of
	// the last shard's last word.
	for _, tc := range []struct {
		name   string
		cfg    Config
		mutate func(env []byte)
	}{
		{"reserved bytes", bloomCfg, func(env []byte) { env[14] = 1 }},
		{"route key under layout 2", bloomCfg, func(env []byte) { env[56] = 1 }},
		{"seed in hardened mode", hardened, func(env []byte) { env[16] ^= 1 }},
		{"bloom bit past the shard size", bloomCfg, func(env []byte) { env[len(env)-5] |= 0x80 }},
		{"counting slack, width 3", counting3, func(env []byte) { env[len(env)-5] |= 0x80 }},
		{"counting slack, width 4", counting4, func(env []byte) { env[len(env)-5] |= 0x80 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, env := filledSnapshot(t, tc.cfg, 100)
			if err := s.restore(env); err != nil {
				t.Fatalf("canonical envelope refused: %v", err)
			}
			tc.mutate(env)
			env = reseal(env)
			if err := s.restore(env); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("restore: got %v, want ErrSnapshotCorrupt", err)
			}
			if tc.cfg.Mode == ModeNaive { // hardened envelopes never upload
				if _, err := NewRegistry().CreateFromSnapshot("up", bytes.NewReader(env)); !errors.Is(err, ErrSnapshotCorrupt) {
					t.Errorf("upload: got %v, want ErrSnapshotCorrupt", err)
				}
			}
		})
	}
}

// allocated returns the bytes allocated while fn runs.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// oneCopyConfigs are geometries of at least 8 MiB of bits per variant.
func oneCopyConfigs() []Config {
	bloom := persistCfg(VariantBloom, ModeNaive, 0, 0)
	bloom.ShardBits = 1 << 24
	blocked := bloom
	blocked.Variant = VariantBlocked
	counting4 := persistCfg(VariantCounting, ModeNaive, 4, core.Saturate)
	counting4.ShardBits = 1 << 22
	counting3 := persistCfg(VariantCounting, ModeNaive, 3, core.Wrap)
	counting3.ShardBits = 6_000_000
	return []Config{bloom, blocked, counting4, counting3}
}

// The allocation pins of the one-copy state moves: an upload, a snapshot and
// a boot recovery each allocate the filter's words once (the store's own,
// or the envelope's) plus bounded buffers — at most 1.1× the envelope.
func TestStateMovesAllocateOneCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates tens of MiB")
	}
	for _, cfg := range oneCopyConfigs() {
		t.Run(fmt.Sprintf("%v-w%d", cfg.Variant, cfg.CounterWidth), func(t *testing.T) {
			src, env := filledSnapshot(t, cfg, 1000)
			limit := uint64(len(env)) * 11 / 10
			check := func(what string, n uint64) {
				t.Helper()
				t.Logf("%s: %.2f× the %d-byte envelope", what, float64(n)/float64(len(env)), len(env))
				if n > limit {
					t.Errorf("%s allocated %d bytes, limit 1.1 × %d", what, n, len(env))
				}
			}

			check("Snapshot", allocated(func() {
				if _, err := src.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}))

			dir := t.TempDir()
			for _, durable := range []bool{false, true} {
				reg := NewRegistry()
				if durable {
					if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("CreateFromSnapshot (durable=%v)", durable), allocated(func() {
					if _, err := reg.CreateFromSnapshot("up", bytes.NewReader(env)); err != nil {
						t.Fatal(err)
					}
				}))
				if err := reg.Close(); err != nil {
					t.Fatal(err)
				}
			}

			reg := NewRegistry()
			defer reg.Close() //nolint:errcheck
			check("OpenDataDir from snap-000000.evb", allocated(func() {
				if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
					t.Fatal(err)
				}
			}))
			f, err := reg.Get("up")
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := f.Store().Snapshot(); !bytes.Equal(got, env) {
				t.Error("recovered filter does not snapshot back to the upload")
			}
		})
	}
}
