package service

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// fprKeys fills batch with n URL-shaped keys of stream (seed, universe)
// starting at index from, reusing buf as their backing store.
func fprKeys(batch [][]byte, buf []byte, seed uint64, universe byte, from int) ([][]byte, []byte) {
	batch, buf = batch[:0], buf[:0]
	for i := 0; i < cap(batch); i++ {
		start := len(buf)
		buf = append(buf, "http://h.ex.org/u/"...)
		buf = append(buf, universe)
		var x [8]byte
		binary.BigEndian.PutUint64(x[:], seed<<40|uint64(from+i))
		buf = hex.AppendEncode(buf, x[:])
		batch = append(batch, buf[start:len(buf):len(buf)])
	}
	return batch, buf
}

// Placement moved, so which keys are false positives moved; how many must
// not. At the resp-read-small geometry (8 shards, 800 k keys, design FPR
// 0.01) filled to capacity, the measured false-positive rate of a layout-2
// store, averaged over 16 key sets, stays within 2 % of layout 1's on the
// same keys — in both modes. A layout that skewed shard load or correlated
// an item's indexes would show here first.
func TestLayoutV2FPRMatchesV1(t *testing.T) {
	if testing.Short() || underRace() {
		t.Skip("fills 64 filters of 800 k keys: seconds plain, minutes under the race detector, which has nothing to find in it")
	}
	const seeds, keys, probes, batchLen = 16, 800_000, 200_000, 4000
	for _, mode := range []Mode{ModeNaive, ModeHardened} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			var mean [3]float64 // by hashes.Layout
			batch, buf := make([][]byte, 0, batchLen), []byte(nil)
			var verdicts []bool
			for seed := uint64(1); seed <= seeds; seed++ {
				for _, layout := range []hashes.Layout{hashes.LayoutV1, hashes.LayoutV2} {
					s, err := NewSharded(Config{
						Shards: 8, Capacity: keys, TargetFPR: 0.01, Mode: mode, Seed: 3,
						Key: []byte("0123456789abcdef"), RouteKey: []byte("fedcba9876543210"), layout: layout,
					})
					if err != nil {
						t.Fatal(err)
					}
					for from := 0; from < keys; from += batchLen {
						batch, buf = fprKeys(batch, buf, seed, 'a', from)
						s.AddBatch(batch)
					}
					positives := 0
					for from := 0; from < probes; from += batchLen {
						batch, buf = fprKeys(batch, buf, seed, 'n', from)
						verdicts = s.TestBatch(verdicts[:0], batch)
						for _, v := range verdicts {
							if v {
								positives++
							}
						}
					}
					mean[layout] += float64(positives) / probes / seeds
				}
			}
			v1, v2 := mean[hashes.LayoutV1], mean[hashes.LayoutV2]
			t.Logf("%v: mean FPR over %d seeds: layout 1 %.6f, layout 2 %.6f (%+.2f %%)", mode, seeds, v1, v2, 100*(v2/v1-1))
			if v1 < 0.008 || v1 > 0.012 {
				t.Errorf("layout 1 measures %.6f at a design FPR of 0.01: the fixture is off", v1)
			}
			if math.Abs(v2/v1-1) > 0.02 {
				t.Errorf("layout 2 FPR %.6f differs from layout 1's %.6f by more than 2 %%", v2, v1)
			}
		})
	}
}

// meanFPR fills a fresh store of cfg with n keys of each of sets key sets and
// returns the false-positive rate of probes keys per set, averaged over the
// sets.
func meanFPR(t *testing.T, cfg Config, sets, n, probes int) float64 {
	t.Helper()
	const batchLen = 4000
	// fprKeys fills its batch to capacity, so each call gets keys capped at
	// the count still wanted.
	keys, buf := make([][]byte, 0, batchLen), []byte(nil)
	var batch [][]byte
	var verdicts []bool
	mean := 0.0
	for seed := uint64(1); seed <= uint64(sets); seed++ {
		s, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for from := 0; from < n; from += batchLen {
			batch, buf = fprKeys(keys[:0:min(batchLen, n-from)], buf, seed, 'a', from)
			s.AddBatch(batch)
		}
		positives := 0
		for from := 0; from < probes; from += batchLen {
			batch, buf = fprKeys(keys[:0:min(batchLen, probes-from)], buf, seed, 'n', from)
			verdicts = s.TestBatch(verdicts[:0], batch)
			for _, v := range verdicts {
				if v {
					positives++
				}
			}
		}
		mean += float64(positives) / float64(probes) / float64(sets)
	}
	return mean
}

// Hardened placement must give the false-positive rate a filter is sized for:
// the uniform-hash value (1 − (1 − 1/m)^{kn})^k at its design load n per
// shard (core.FPRExact). Layout 3 holds it within ±3 %, at the bench's
// resp-churn-durable geometry and at k = 10 from m = 2²² + 1 (just past a
// power of two) to 2²⁶. The k = 10 rows are a 1 % sizing (n ≈ m/9.585)
// hashed ten times; the 2²⁶ row uses two key sets, as each holds 7 M keys
// and its probes, not its fill, set the noise. Layout 2's hardened rule
// reduces each ⌈log₂ m⌉-bit group with one subtraction, so the lowest
// 2^⌈log₂ m⌉ − m positions are hit twice as often: its row logs the excess
// at the bench geometry (≈ +17 %) and asserts nothing, as the record of that
// defect.
func TestHardenedFPRMatchesDesign(t *testing.T) {
	if testing.Short() || underRace() {
		t.Skip("fills filters of up to 7 M keys: seconds plain, minutes under the race detector, which has nothing to find in it")
	}
	for _, g := range []struct {
		name         string
		layout       hashes.Layout
		shards, k    int
		m            uint64
		n            int // keys per set, over all shards
		sets, probes int
	}{
		{"bench", hashes.LayoutV3, 8, 7, 1917012, 1_600_000, 16, 200_000},
		{"bench-v2", hashes.LayoutV2, 8, 7, 1917012, 1_600_000, 16, 200_000},
		{"k10-m2^22+1", hashes.LayoutV3, 1, 10, 1<<22 + 1, 437_600, 16, 200_000},
		{"k10-m2^26", hashes.LayoutV3, 1, 10, 1 << 26, 7_000_000, 2, 1_600_000},
	} {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Shards: g.shards, ShardBits: g.m, HashCount: g.k, Mode: ModeHardened,
				Key: []byte("0123456789abcdef"), RouteKey: []byte("fedcba9876543210"), layout: g.layout,
			}
			design := core.FPRExact(g.m, uint64(g.n/g.shards), g.k)
			got := meanFPR(t, cfg, g.sets, g.n, g.probes)
			t.Logf("m=%d k=%d n=%d/shard: mean FPR over %d key sets: layout %d hardened %.6f, design %.6f (%+.2f %%)",
				g.m, g.k, g.n/g.shards, g.sets, g.layout, got, design, 100*(got/design-1))
			if g.layout == hashes.LayoutV3 && math.Abs(got/design-1) > 0.03 {
				t.Errorf("layout 3 FPR %.6f is more than 3 %% from the design's %.6f", got, design)
			}
		})
	}
}
