package bitset

import (
	"fmt"
	"sync/atomic"
)

// TestProgressions tests eight keys' index progressions at once, one per
// lane l: bit l of the result is set iff sets[l] holds every bit g_i, i < k,
// of the progression g_0 = start[l], g_{i+1} = g_i + step[l] mod m, where m
// is the sets' common size — hashes.Progression's indexes, by its no-wrap
// rule: g + step is taken as g − (m − step) once it would reach m. Lanes may
// share a set. Every word is read as TestAtomic reads it, so this runs with
// no lock held alongside a serialized writer using SetAtomic or Reset.
//
// On amd64 with AVX-512F it is one call of an assembly kernel: each round
// gathers the eight lanes' words and tests their bits, all k rounds issued
// whatever earlier rounds found, so the 8·k loads overlap. Elsewhere, and in
// -race builds, a Go loop answers the same.
//
// Sets of different sizes, start ≥ m or step > m on any lane panic: the
// kernel reads words unchecked, and no caller's indexes are out of range.
func TestProgressions(sets *[8]*BitSet, start, step *[8]uint64, k int) uint8 {
	m := sets[0].size
	var words [8]*uint64
	for l, b := range sets {
		if b.size != m || start[l] >= m || step[l] > m {
			panic(fmt.Sprintf("bitset: lane %d probes start %d step %d in a %d-bit set, lane 0's has %d bits",
				l, start[l], step[l], b.size, m))
		}
		words[l] = &b.words[0]
	}
	if haveProbe8 {
		return probe8(&words, start, step, m, k)
	}
	return testProgressions(sets, start, step, m, k)
}

// testProgressions is TestProgressions in Go, for CPUs and builds without
// the kernel, and the oracle the kernel is tested against.
func testProgressions(sets *[8]*BitSet, start, step *[8]uint64, m uint64, k int) uint8 {
	var out uint8
	for l, b := range sets {
		g, back := start[l], m-step[l]
		hit := true
		for i := 0; i < k && hit; i++ {
			hit = atomic.LoadUint64(&b.words[g/wordBits])&(1<<(g%wordBits)) != 0
			next := g + step[l]
			if g >= back {
				next = g - back
			}
			g = next
		}
		if hit {
			out |= 1 << l
		}
	}
	return out
}
