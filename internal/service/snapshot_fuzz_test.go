package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// snapshotFixtures are the envelopes released binaries wrote: the files
// their GET …/snapshot served and the generation snapshots in their data
// directories (the hardened ones included: they restore nowhere here, but
// their bytes are real).
func snapshotFixtures(tb testing.TB) [][]byte {
	tb.Helper()
	var paths []string
	for _, pattern := range []string{"testdata/*/snapshot.evb", "testdata/*/*/snapshot.evb", "testdata/*/default/snap-*.evb", "testdata/*/*/default/snap-*.evb"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			tb.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		tb.Fatal("no snapshot fixtures under testdata/")
	}
	envs := make([][]byte, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		envs[i] = b
	}
	return envs
}

// FuzzSnapshotEnvelope throws arbitrary bytes at the two ways a snapshot
// envelope enters the server: restore into a built, unpublished store (the
// data directory path) and Registry.CreateFromSnapshot (the upload path).
// The invariants:
//
//   - nothing panics;
//   - restore fails only with ErrSnapshotCorrupt or ErrSnapshotMismatch;
//     CreateFromSnapshot also with a registry limit — the error validate
//     gives for the header's configuration, or a reservation refusal;
//   - no storage budget outlives a failed upload or a deleted filter;
//   - whatever is accepted snapshots back to exactly the input bytes.
//
// With reseal set the harness replaces the input's last four bytes with a
// valid CRC, so mutations reach the checks behind the checksum. The last
// invariant holds for them too: an encoding no writer produces (bits set
// past a shard's size or a counter stream's end, a non-zero reserved byte,
// a header field the configuration would not write) is refused as corrupt,
// so restore implies a byte-identical re-snapshot.
func FuzzSnapshotEnvelope(f *testing.F) {
	fixtures := snapshotFixtures(f)
	var stores []*Sharded
	seen := map[string]bool{}
	for _, env := range fixtures {
		f.Add(env, false)
		for _, cut := range []int{0, 7, 8, 71, 72, 73, len(env) / 2, len(env) - 4, len(env) - 1} {
			f.Add(env[:cut], false)
		}
		f.Add(append(bytes.Clone(env), 0), false)
		// One restorable store per configuration a naive fixture resolves to.
		cfg, err := SnapshotConfig(env)
		if err != nil {
			continue
		}
		if key := string(env[8:72]); !seen[key] {
			seen[key] = true
			s, err := NewSharded(cfg)
			if err != nil {
				f.Fatal(err)
			}
			stores = append(stores, s)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 4 {
			data = snapshotFrame.Finish(bytes.Clone(data[:len(data)-4]))
		}

		for _, s := range stores {
			err := s.restore(data)
			if err != nil {
				if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotMismatch) {
					t.Fatalf("restore: untyped error %v", err)
				}
				continue
			}
			roundTrips(t, s, data)
		}

		// An upload allocates its frame once the header is admitted; keep
		// frames that claim more than the input out of a fuzz process.
		if len(data) >= snapshotFrame.HeaderLen && bytes.HasPrefix(data, []byte(snapshotFrame.Magic)) {
			if h, err := decodeSnapshotHeader(data); err == nil && h.payloadLen >= 1<<20 && h.payloadLen > uint64(len(data)) {
				return
			}
		}
		reg := NewRegistry()
		defer reg.Close() //nolint:errcheck // memory-only registry
		fl, err := reg.CreateFromSnapshot("fuzz", bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotMismatch) && !isRegistryLimit(reg, data, err) {
				t.Fatalf("CreateFromSnapshot: untyped error %v", err)
			}
		} else {
			roundTrips(t, fl.Store(), data)
			if err := reg.Delete("fuzz"); err != nil {
				t.Fatal(err)
			}
		}
		if bits, n := reg.StorageInUse(); bits != 0 || n != 0 {
			t.Fatalf("%d bits and %d reservations left charged", bits, n)
		}
	})
}

// roundTrips checks that s, just restored from data, snapshots back to
// exactly data.
func roundTrips(t *testing.T, s *Sharded, data []byte) {
	t.Helper()
	got, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("accepted %d bytes, snapshots back to %d other bytes", len(data), len(got))
	}
}

// isRegistryLimit reports whether err is the registry refusing the
// configuration data's header resolves to: a reservation limit, or exactly
// the error validate or NewSharded gives for that configuration. Only a
// header the codec accepted gets that far.
func isRegistryLimit(reg *Registry, data []byte, err error) bool {
	if errors.Is(err, ErrFilterExists) || errors.Is(err, ErrRegistryFull) || errors.Is(err, ErrBudgetExhausted) {
		return true
	}
	cfg, cerr := SnapshotConfig(data)
	if cerr != nil {
		return false
	}
	_, verr := reg.validate("fuzz", &cfg)
	if verr == nil {
		// The whole frame was read, so this store is no larger than data.
		_, verr = NewSharded(cfg)
	}
	return verr != nil && verr.Error() == err.Error()
}
