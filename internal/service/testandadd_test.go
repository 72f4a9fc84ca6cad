package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// recordingJournal keeps every journal record, in the order they arrive.
type recordingJournal struct{ ops []string }

func (j *recordingJournal) JournalAdds(items [][]byte) {
	for _, it := range items {
		j.ops = append(j.ops, "+"+string(it))
	}
}
func (j *recordingJournal) JournalRemove(item []byte) { j.ops = append(j.ops, "-"+string(item)) }

// novelBatch draws a batch of 1–300 items, about a fifth of them repeats:
// of an earlier item of the same batch, or of one an earlier batch added.
func novelBatch(rng *rand.Rand, seen *[][]byte, fresh *int) [][]byte {
	items := make([][]byte, 1+rng.Intn(300))
	for i := range items {
		switch {
		case rng.Intn(10) == 0 && i > 0:
			items[i] = items[rng.Intn(i)]
		case rng.Intn(10) == 0 && len(*seen) > 0:
			items[i] = (*seen)[rng.Intn(len(*seen))]
		default:
			*fresh++
			items[i] = []byte(fmt.Sprintf("http://item-%d.example/", *fresh))
		}
	}
	*seen = append(*seen, items...)
	return items
}

// TestAndAddBatch answers novelty exactly as Test then Add item by item
// would, and leaves the store — bits, counters, Count, Weight, Generation,
// journal — exactly as AddBatch does: for every variant (counting at width 4
// under both overflow policies, so wrapped counters are reached, and at
// width 3, whose reads take the shard lock), both modes, both placement
// layouts, and shard counts that take the radix sort's one and two passes.
func TestTestAndAddBatchMatchesSequential(t *testing.T) {
	// Shards are small so that they fill up within a few batches: repeats
	// and false positives answer 0, and 4-bit counters get to wrap (and 0
	// turns back into 1) on shards of 256 counters.
	variants := []struct {
		name   string
		v      Variant
		width  int
		policy core.OverflowPolicy
		bits   uint64
	}{
		{"bloom", VariantBloom, 0, 0, 1024},
		{"blocked", VariantBlocked, 0, 0, 1024},
		{"counting-w4-wrap", VariantCounting, 4, core.Wrap, 256},
		{"counting-w4-saturate", VariantCounting, 4, core.Saturate, 256},
		{"counting-w3", VariantCounting, 3, core.Wrap, 1024},
	}
	seed := int64(0)
	for _, vc := range variants {
		for _, mode := range []Mode{ModeNaive, ModeHardened} {
			for _, layout := range []hashes.Layout{hashes.LayoutV1, hashes.LayoutV2, hashes.LayoutV3} {
				if layout == hashes.LayoutV3 && mode == ModeNaive {
					continue // layout 3 is keyed only
				}
				for _, shards := range []int{1, 8, 512} {
					seed++
					name := fmt.Sprintf("%s/%v/v%d/%d-shards", vc.name, mode, layout, shards)
					t.Run(name, func(t *testing.T) {
						cfg := testConfig(mode, shards)
						cfg.Variant, cfg.CounterWidth, cfg.Overflow = vc.v, vc.width, vc.policy
						cfg.ShardBits, cfg.HashCount = vc.bits, 4
						cfg.layout = layout
						checkTestAndAdd(t, cfg, rand.New(rand.NewSource(seed)))
					})
				}
			}
		}
	}
}

func checkTestAndAdd(t *testing.T, cfg Config, rng *rand.Rand) {
	stores := make([]*Sharded, 3) // TestAndAddBatch, item by item, AddBatch
	journals := make([]*recordingJournal, 3)
	for i := range stores {
		s, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = new(recordingJournal)
		s.SetJournal(journals[i])
		stores[i] = s
	}
	batched, single, added := stores[0], stores[1], stores[2]

	var seen [][]byte
	fresh := 0
	var got, want []bool
	for round := 0; round < 8; round++ {
		items := novelBatch(rng, &seen, &fresh)
		got = batched.TestAndAddBatch(got[:0], items)
		want = want[:0]
		for _, it := range items {
			want = append(want, !single.Test(it))
			single.Add(it)
		}
		added.AddBatch(items)
		if !slices.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d: item %d (%q) novelty %v, item by item %v", round, i, items[i], got[i], want[i])
				}
			}
			t.Fatalf("round %d: %d answers, want %d", round, len(got), len(want))
		}
	}

	snaps := make([][]byte, 3)
	for i, s := range stores {
		var err error
		if snaps[i], err = s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"item by item", "AddBatch"} {
		other := stores[i+1]
		if !bytes.Equal(snaps[0], snaps[i+1]) {
			t.Errorf("snapshot differs from the %s twin's", name)
		}
		if a, b := batched.Count(), other.Count(); a != b {
			t.Errorf("Count %d, %s twin %d", a, name, b)
		}
		if a, b := batched.Stats().Weight, other.Stats().Weight; a != b {
			t.Errorf("Weight %d, %s twin %d", a, name, b)
		}
		if a, b := batched.Generation(), other.Generation(); a != b {
			t.Errorf("Generation %d, %s twin %d", a, name, b)
		}
	}
	if !slices.Equal(journals[0].ops, journals[2].ops) {
		t.Errorf("journal records differ from AddBatch's: %d vs %d records", len(journals[0].ops), len(journals[2].ops))
	}

	if underRace() {
		return // allocation counts mean nothing under -race
	}
	batched.SetJournal(nil)
	items := benchItems(64)
	dst := batched.TestAndAddBatch(nil, items) // warm the pool
	if n := testing.AllocsPerRun(50, func() { dst = batched.TestAndAddBatch(dst[:0], items) }); n != 0 {
		t.Errorf("64-item TestAndAddBatch on a warm store: %v allocs, want 0", n)
	}
}
