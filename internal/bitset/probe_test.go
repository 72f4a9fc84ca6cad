package bitset

import (
	"fmt"
	"math/rand"
	"testing"

	"evilbloom/internal/hashes"
)

// TestProgressionsEdges holds the probe kernel and its Go loop to the
// definition, bit i of hashes.Progression read with Test, at the sizes
// where words end (m = 1, 63, 64, 65, 4097), the step extremes 0 and m
// (both a progression standing still) and the k a round count can get
// wrong (1, 7, 40). Half the lanes have every bit of their progression set,
// some of those less exactly the first or the last one, so each lane's
// verdict hangs on every round; lanes share sets, and the other bits are
// set at densities from none to all.
func TestProgressionsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []uint64{1, 63, 64, 65, 4097} {
		for _, k := range []int{1, 7, 40} {
			for _, density := range []float64{0, 0.5, 0.97, 1} {
				for trial := 0; trial < 20; trial++ {
					var owned [3]*BitSet
					for i := range owned {
						owned[i] = New(m)
						for bit := uint64(0); bit < m; bit++ {
							if rng.Float64() < density {
								owned[i].Set(bit)
							}
						}
					}
					var sets [8]*BitSet
					var start, step [8]uint64
					for l := range sets {
						sets[l] = owned[rng.Intn(len(owned))]
						start[l] = rng.Uint64() % m
						switch rng.Intn(4) {
						case 0:
							step[l] = 0
						case 1:
							step[l] = m
						default:
							step[l] = rng.Uint64() % (m + 1)
						}
					}
					// Plant after every lane is drawn, so a later lane's
					// gaps are not filled by an earlier one's plant.
					for l := range sets {
						if rng.Intn(2) == 0 {
							continue
						}
						idx := hashes.Progression(nil, start[l], step[l], m, k)
						for _, i := range idx {
							sets[l].Set(i)
						}
						switch rng.Intn(3) {
						case 0:
							sets[l].Clear(idx[0])
						case 1:
							sets[l].Clear(idx[k-1])
						}
					}
					var want uint8
					for l := range sets {
						hit := true
						for _, i := range hashes.Progression(nil, start[l], step[l], m, k) {
							hit = hit && sets[l].Test(i)
						}
						if hit {
							want |= 1 << l
						}
					}
					where := fmt.Sprintf("m=%d k=%d density=%v start=%v step=%v", m, k, density, start, step)
					if got := testProgressions(&sets, &start, &step, m, k); got != want {
						t.Fatalf("%s: Go loop %08b, want %08b", where, got, want)
					}
					if haveProbe8 {
						var words [8]*uint64
						for l, b := range sets {
							words[l] = &b.words[0]
						}
						if got := probe8(&words, &start, &step, m, k); got != want {
							t.Fatalf("%s: kernel %08b, want %08b", where, got, want)
						}
					}
					if got := TestProgressions(&sets, &start, &step, k); got != want {
						t.Fatalf("%s: TestProgressions %08b, want %08b", where, got, want)
					}
				}
			}
		}
	}
	if !haveProbe8 {
		t.Skip("no probe kernel in this build or on this CPU: only the Go loop ran")
	}
}

// TestProgressionsRefusesOutOfRange pins the checks the kernel relies on:
// lanes whose sets differ in size, start ≥ m or step > m panic before any
// word is read. A call allocates nothing.
func TestProgressionsRefusesOutOfRange(t *testing.T) {
	base := func() (sets [8]*BitSet, start, step [8]uint64) {
		b := New(100)
		for l := range sets {
			sets[l], start[l], step[l] = b, 99, 100
		}
		return
	}
	for _, tc := range []struct {
		name string
		bad  func(sets *[8]*BitSet, start, step *[8]uint64)
	}{
		{"a lane's set of another size", func(sets *[8]*BitSet, _, _ *[8]uint64) { sets[5] = New(101) }},
		{"lane 0's set of another size", func(sets *[8]*BitSet, _, _ *[8]uint64) { sets[0] = New(64) }},
		{"start = m", func(_ *[8]*BitSet, start, _ *[8]uint64) { start[3] = 100 }},
		{"step = m + 1", func(_ *[8]*BitSet, _, step *[8]uint64) { step[7] = 101 }},
		{"empty sets", func(sets *[8]*BitSet, start, step *[8]uint64) {
			for l := range sets {
				sets[l], start[l], step[l] = New(0), 0, 0
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sets, start, step := base()
			tc.bad(&sets, &start, &step)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			TestProgressions(&sets, &start, &step, 7)
		})
	}
	sets, start, step := base()
	if allocs := testing.AllocsPerRun(100, func() { TestProgressions(&sets, &start, &step, 7) }); allocs != 0 {
		t.Fatalf("TestProgressions allocates %v times a call", allocs)
	}
}

// TestSetProgressionEdges holds the set kernel and its Go loop to the
// definition — every bit of hashes.Progression set with Set, the fresh count
// the number of distinct bits that were clear — at the sizes where words end
// (m = 1, 63, 64, 65, 4097), the step extremes 0 and m (a progression
// standing still, so one bit set and counted once), k = 0 and the round
// counts 1, 7 and 40, from empty, half-set and full words. Both must leave
// every word, the ones past the progression included, as the definition
// does.
func TestSetProgressionEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []uint64{1, 63, 64, 65, 4097} {
		for _, k := range []int{0, 1, 7, 40} {
			for _, density := range []float64{0, 0.5, 1} {
				for trial := 0; trial < 20; trial++ {
					start := rng.Uint64() % m
					var step uint64
					switch trial % 4 {
					case 0:
						step = 0
					case 1:
						step = m
					default:
						step = rng.Uint64() % (m + 1)
					}
					base := New(m)
					for bit := uint64(0); bit < m; bit++ {
						if rng.Float64() < density {
							base.Set(bit)
						}
					}
					want := base.Clone()
					wantFresh := 0
					for _, i := range hashes.Progression(nil, start, step, m, k) {
						if want.Set(i) {
							wantFresh++
						}
					}
					where := fmt.Sprintf("m=%d k=%d density=%v start=%d step=%d", m, k, density, start, step)
					check := func(name string, set func(b *BitSet) int) {
						b := base.Clone()
						if fresh := set(b); fresh != wantFresh {
							t.Fatalf("%s: %s fresh %d, want %d", where, name, fresh, wantFresh)
						}
						if !b.Equal(want) {
							t.Fatalf("%s: %s leaves %v, want %v", where, name, b, want)
						}
					}
					check("Go loop", func(b *BitSet) int { return b.setProgressionGo(start, step, k) })
					if haveSetKernel && k > 0 {
						check("kernel", func(b *BitSet) int { return setProgression(&b.words[0], start, step, m, k) })
					}
					check("SetProgression", func(b *BitSet) int { return b.SetProgression(start, step, k) })
				}
			}
		}
	}
	if !haveSetKernel {
		t.Skip("no set kernel in this build: only the Go loop ran")
	}
}

// TestSetProgressionRefusesOutOfRange pins the checks the kernel relies on:
// start ≥ m or step > m panics before any word is written, on an empty set
// too. A call allocates nothing.
func TestSetProgressionRefusesOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name           string
		m, start, step uint64
	}{
		{"start = m", 100, 100, 1},
		{"step = m + 1", 100, 0, 101},
		{"empty set", 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := New(tc.m)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
				if b.Weight() != 0 {
					t.Fatal("a refused call wrote bits")
				}
			}()
			b.SetProgression(tc.start, tc.step, 7)
		})
	}
	b := New(100)
	if allocs := testing.AllocsPerRun(100, func() { b.SetProgression(99, 100, 7) }); allocs != 0 {
		t.Fatalf("SetProgression allocates %v times a call", allocs)
	}
}
