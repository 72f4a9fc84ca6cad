//go:build !race

package bitset

// haveSetKernel reports whether SetProgression runs setProgression: every
// amd64 CPU does, as the kernel is plain scalar code.
const haveSetKernel = true

// setProgression is SetProgression's kernel: it sets bits start, start +
// step, … (k of them, by hashes.Progression's advance rule) of the m-bit set
// whose word 0 is words, given start < m, step ≤ m and k ≥ 1, and returns
// how many were clear. Each bit is a MOVQ load of its word, BTSQ, and a MOVQ
// store of the word only when the bit was clear: plain aligned stores, with
// no XCHGQ. SetProgression's doc gives why that publishes as SetAtomic does.
//
//go:noescape
func setProgression(words *uint64, start, step, m uint64, k int) int
