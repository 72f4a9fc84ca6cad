package service

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"evilbloom/internal/hashes"
)

// FuzzAddBatchMatchesSequential holds the insert walk to the per-item rule
// it must agree with: Place, then the shard backend's TestIndexes and, when
// the item is new or the shard counts every add, AddIndexes — applied in the
// walk's visiting order (shards ascending, input order within a shard),
// each applied add journaled. TestAndAddBatch's verdicts, single Adds, every
// shard's tracked weight (and the backend's own), Count, Generation and the
// journal's record sequence must all match, on every variant × layout ×
// mode that places: bloom stores of unkeyed v2 and of v3 through the
// progression set kernel (bitset.SetProgression), the rest through
// addLocked. Shards are 64–512 positions at k 1–40 on 1–64 shards, so
// distinct keys soon cover each other's bits inside one window and an add
// that sets nothing is skipped; batches of 1–200 keys repeat keys, of the
// same batch and of earlier ones.
func FuzzAddBatchMatchesSequential(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(7), uint16(256), uint8(64), uint8(3))
	f.Add(int64(2), uint8(0), uint8(1), uint16(0), uint8(1), uint8(0))
	f.Add(int64(3), uint8(6), uint8(40), uint16(65), uint8(200), uint8(7))
	f.Add(int64(4), uint8(2), uint8(13), uint16(448), uint8(9), uint8(5))
	f.Add(int64(5), uint8(1), uint8(3), uint16(1), uint8(130), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, shardsLog, kRaw uint8, mRaw uint16, nRaw, roundsRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 << (shardsLog % 7)
		k := int(kRaw)%40 + 1
		m := 64 + uint64(mRaw)%449
		n := int(nRaw)%200 + 1
		var seen [][]byte
		item := func() []byte {
			if len(seen) > 0 && rng.Intn(4) == 0 {
				return seen[rng.Intn(len(seen))]
			}
			b := make([]byte, rng.Intn(65))
			rng.Read(b)
			seen = append(seen, b)
			return b
		}
		rounds := make([][][]byte, int(roundsRaw)%4+1)
		single := make([]bool, len(rounds))
		for r := range rounds {
			rounds[r] = make([][]byte, rng.Intn(n)+1)
			for i := range rounds[r] {
				rounds[r][i] = item()
			}
			single[r] = rng.Intn(4) == 0
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
					where := fmt.Sprintf("%v v%d %v shards=%d k=%d m=%d", variant, layout, mode, shards, k, m)
					checkAddSequential(t, where, cfg, rounds, single)
				}
			}
		}
	})
}

// checkAddSequential runs rounds through a store — each as one
// TestAndAddBatch, or item by item through Add where single says so — and
// through a twin driven per item at the backend, and compares them.
func checkAddSequential(t *testing.T, where string, cfg Config, rounds [][][]byte, single []bool) {
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	journal := new(recordingJournal)
	s.SetJournal(journal)
	var want []string
	weight := make([]uint64, ref.Shards())
	var gen uint64
	// add applies one item to the twin as addLocked did before the set
	// kernel: test, then add when new or on a counting shard.
	add := func(it []byte) bool {
		shard, idx := ref.place.Place(nil, it)
		b := ref.shards[shard].backend
		novel := !b.TestIndexes(idx)
		if novel || ref.Removable() {
			weight[shard] = applyDelta(weight[shard], b.AddIndexes(idx))
			gen++
			want = append(want, "+"+string(it))
		}
		return novel
	}
	for r, items := range rounds {
		if single[r] {
			for _, it := range items {
				s.Add(it)
				add(it)
			}
			continue
		}
		got := s.TestAndAddBatch(nil, items)
		// The walk visits shards in ascending order, input order within one.
		order := make([]int, len(items))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int {
			sa, _ := ref.place.Route(items[a])
			sb, _ := ref.place.Route(items[b])
			return sa - sb
		})
		novel := make([]bool, len(items))
		for _, i := range order {
			novel[i] = add(items[i])
		}
		for i := range items {
			if got[i] != novel[i] {
				t.Fatalf("%s: round %d item %d (%d bytes): TestAndAddBatch %v, per item %v", where, r, i, len(items[i]), got[i], novel[i])
			}
		}
	}
	if !slices.Equal(journal.ops, want) {
		t.Fatalf("%s: journal of %d records differs from the per-item one of %d", where, len(journal.ops), len(want))
	}
	st := s.Stats()
	for i, ps := range st.PerShard {
		if ps.Weight != weight[i] || s.shards[i].backend.Weight() != weight[i] {
			t.Fatalf("%s: shard %d tracks weight %d, holds %d, per item %d", where, i, ps.Weight, s.shards[i].backend.Weight(), weight[i])
		}
	}
	if a, b := s.Count(), ref.Count(); a != b {
		t.Fatalf("%s: Count %d, per item %d", where, a, b)
	}
	if g := s.Generation(); g != gen {
		t.Fatalf("%s: Generation %d, per item %d", where, g, gen)
	}
}
