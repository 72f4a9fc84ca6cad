package service

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

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
