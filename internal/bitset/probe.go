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

// SetProgression sets bits g_0 = start, g_{i+1} = g_i + step mod m, i < k,
// of the set — hashes.Progression's indexes, by its no-wrap rule, as
// TestProgressions reads them — and returns how many were clear before the
// call. 0 means the set already held every one of them and nothing was
// written; a bit the progression repeats is set and counted once. It is
// SetAtomic for k bits: writers are serialized by the caller, and
// TestAtomic and TestProgressions may read the set with no lock meanwhile.
//
// On amd64 it is one call of a scalar assembly kernel (setprog_amd64.s):
// per bit a MOVQ load of its word, BTSQ, and — only when the bit was clear —
// a plain MOVQ store of the word, where SetAtomic's atomic.StoreUint64 is an
// XCHGQ, a full fence per bit. The plain stores publish as SetAtomic does:
//   - every writer to the words holds the one lock its caller keeps for
//     this set (the service's shard lock; shards share no BitSet), so no
//     store races another and no load-then-store loses a bit;
//   - an aligned 8-byte MOVQ is single-copy atomic: a lock-free reader's
//     atomic load sees each word whole, from before or after a store;
//   - x86-64 is TSO, so the stores become visible in program order and a
//     reader sees a prefix of the walk, as it would under XCHGQ;
//   - the caller's unlock is a locked instruction, which drains the store
//     buffer: every bit is visible before the writer acknowledges the add.
//
// Elsewhere, and in -race builds, a Go loop over SetAtomic does the same.
// start ≥ m or step > m panics, as in TestProgressions: the kernel writes
// words unchecked, and no caller's indexes are out of range. k ≤ 0 sets
// nothing.
func (b *BitSet) SetProgression(start, step uint64, k int) (fresh int) {
	m := b.size
	if start >= m || step > m {
		panic(fmt.Sprintf("bitset: progression start %d step %d in a %d-bit set", start, step, m))
	}
	if k <= 0 {
		return 0
	}
	if haveSetKernel {
		return setProgression(&b.words[0], start, step, m, k)
	}
	return b.setProgressionGo(start, step, k)
}

// setProgressionGo is SetProgression in Go, for builds without the kernel,
// and the oracle the kernel is tested against.
func (b *BitSet) setProgressionGo(start, step uint64, k int) (fresh int) {
	g, back := start, b.size-step
	for i := 0; i < k; i++ {
		if b.SetAtomic(g) {
			fresh++
		}
		next := g + step
		if g >= back {
			next = g - back
		}
		g = next
	}
	return fresh
}
