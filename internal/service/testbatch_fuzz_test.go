package service

import (
	"math/rand"
	"testing"

	"evilbloom/internal/hashes"
)

// FuzzTestBatchMatchesPlace holds TestBatch to the per-item path it must
// agree with, verdict for verdict: Place, then the shard backend's
// TestIndexes. Every variant × layout × mode that places runs on each
// input — bloom stores of unkeyed v2 and of v3 through the eight-lane probe
// (bitset.TestProgressions), the rest through their indexes — at fuzzed
// shard counts (1–64), k (1–40), shard sizes, fill and batch lengths
// (1–200, so windows of 64 end in short lane groups), on keys of 0–64
// bytes, half of them added. Small shards at high fill leave keys with all
// but one bit set, whose verdict hangs on every round.
func FuzzTestBatchMatchesPlace(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(7), uint16(4096), uint8(64), uint8(100))
	f.Add(int64(2), uint8(0), uint8(1), uint16(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(6), uint8(40), uint16(65), uint8(200), uint8(255))
	f.Add(int64(4), uint8(2), uint8(13), uint16(600), uint8(9), uint8(30))
	f.Add(int64(5), uint8(1), uint8(3), uint16(64), uint8(130), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, shardsLog, kRaw uint8, mRaw uint16, nRaw, fillRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 << (shardsLog % 7)
		k := int(kRaw)%40 + 1
		m := uint64(mRaw)%8192 + 1
		n := int(nRaw)%200 + 1
		item := func() []byte {
			b := make([]byte, rng.Intn(65))
			rng.Read(b)
			return b
		}
		added := make([][]byte, int(fillRaw)*int(m)*shards/(256*k)+1)
		for i := range added {
			added[i] = item()
		}
		batch := make([][]byte, n)
		for i := range batch {
			if rng.Intn(2) == 0 {
				batch[i] = added[rng.Intn(len(added))]
			} else {
				batch[i] = item()
			}
		}
		for _, variant := range []Variant{VariantBloom, VariantCounting, VariantBlocked} {
			for _, layout := range []hashes.Layout{hashes.LayoutV1, hashes.LayoutV2, hashes.LayoutV3} {
				for _, mode := range []Mode{ModeNaive, ModeHardened} {
					if !layout.Places(mode == ModeHardened) {
						continue
					}
					cfg := Config{
						Variant: variant, Shards: shards, ShardBits: m, HashCount: k, Mode: mode, Seed: uint64(seed),
						Key: []byte("0123456789abcdef"), RouteKey: []byte("fedcba9876543210"), layout: layout,
					}
					s, err := NewSharded(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.AddBatch(added)
					got := s.TestBatch([]bool{true, false}, batch)
					if len(got) != 2+n || !got[0] || got[1] {
						t.Fatalf("TestBatch did not append to dst: %v", got[:min(len(got), 2)])
					}
					for i, it := range batch {
						shard, idx := s.place.Place(nil, it)
						if want := s.shards[shard].backend.TestIndexes(idx); got[2+i] != want {
							t.Fatalf("%v v%d %v shards=%d k=%d m=%d n=%d: item %d (%d bytes) TestBatch %v, Place+TestIndexes %v",
								variant, layout, mode, shards, k, s.ShardBits(), n, i, len(it), got[2+i], want)
						}
					}
				}
			}
		}
	})
}
