package service

import (
	"fmt"
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// overflowRow is one store geometry the repeated-add tests run on: every
// placement layout and mode, counter widths from one bit to sixteen.
type overflowRow struct {
	layout hashes.Layout
	mode   Mode
	width  int
}

func overflowRows() []overflowRow {
	var rows []overflowRow
	for _, layout := range []hashes.Layout{hashes.LayoutV1, hashes.LayoutV2, hashes.LayoutV3} {
		for _, mode := range []Mode{ModeNaive, ModeHardened} {
			if layout == hashes.LayoutV3 && mode == ModeNaive {
				continue // layout 3 is keyed only
			}
			for _, width := range []int{1, 3, 4, 16} {
				rows = append(rows, overflowRow{layout, mode, width})
			}
		}
	}
	return rows
}

func (r overflowRow) String() string {
	return fmt.Sprintf("v%d/%v/w%d", r.layout, r.mode, r.width)
}

// store builds a fresh counting store for the row under policy (zero takes
// the default) holding one bystander item on the shard x routes to.
func (r overflowRow) store(t *testing.T, policy core.OverflowPolicy, x []byte) (*Sharded, []byte) {
	t.Helper()
	s, err := NewSharded(Config{
		Variant: VariantCounting, CounterWidth: r.width, Overflow: policy,
		Shards: 2, ShardBits: 4096, HashCount: 4, Mode: r.mode, Seed: 5, layout: r.layout,
	})
	if err != nil {
		t.Fatal(err)
	}
	home, _ := s.place.Route(x)
	for i := 0; ; i++ {
		bystander := []byte(fmt.Sprintf("bystander-%d", i))
		if si, _ := s.place.Route(bystander); si == home {
			s.Add(bystander)
			return s, bystander
		}
	}
}

// repeat returns n copies of x.
func repeat(x []byte, n int) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		items[i] = x
	}
	return items
}

// Under the default overflow policy an item added any number of times stays
// present, and so does every item sharing its shard: 2^w adds would roll a
// wrapping w-bit counter back to zero. The adds arrive one at a time (x is
// tested after each) or as one AddBatch of 2^w or 2^w + 1 copies.
func TestRepeatedAddNeverErasesUnderSaturate(t *testing.T) {
	x := []byte("http://hot.example/")
	for _, row := range overflowRows() {
		t.Run(row.String(), func(t *testing.T) {
			full := 1 << row.width
			check := func(what string, s *Sharded, bystander []byte) {
				t.Helper()
				if !s.Test(x) {
					t.Fatalf("%s: x is absent", what)
				}
				if !s.Test(bystander) {
					t.Fatalf("%s: the bystander %q on x's shard is absent", what, bystander)
				}
			}
			s, bystander := row.store(t, 0, x)
			if got := s.OverflowPolicy(); got != core.Saturate {
				t.Fatalf("default overflow policy %v, want saturate", got)
			}
			for i := 1; i <= full+1; i++ {
				s.Add(x)
				check(fmt.Sprintf("after %d single adds", i), s, bystander)
			}
			for _, n := range []int{full, full + 1} {
				s, bystander := row.store(t, 0, x)
				s.AddBatch(repeat(x, n))
				check(fmt.Sprintf("after one AddBatch of %d copies", n), s, bystander)
			}
		})
	}
}

// The §6.2 row, pinned: under opt-in wrap, 2^w adds of one item — one at a
// time or in one AddBatch — roll its counters back to zero and erase it.
func TestRepeatedAddErasesUnderWrap(t *testing.T) {
	x := []byte("http://hot.example/")
	for _, row := range overflowRows() {
		t.Run(row.String(), func(t *testing.T) {
			full := 1 << row.width
			single, _ := row.store(t, core.Wrap, x)
			for i := 0; i < full; i++ {
				single.Add(x)
			}
			batch, _ := row.store(t, core.Wrap, x)
			batch.AddBatch(repeat(x, full))
			for name, s := range map[string]*Sharded{"single adds": single, "one AddBatch": batch} {
				if s.Test(x) {
					t.Errorf("%s: x still present after %d wrapping adds", name, full)
				}
			}
		})
	}
}
