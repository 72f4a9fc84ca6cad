//go:build !race

package bitset

import "evilbloom/internal/cpufeat"

// haveProbe8 reports whether this CPU runs probe8.
var haveProbe8 = cpufeat.AVX512F

// probe8 is TestProgressions on AVX-512F, one lane per 64-bit element of a
// ZMM register: words[l] is lane l's word 0 and m ≥ 1 the sets' size, and
// every start[l] < m and step[l] ≤ m (TestProgressions checks). Each of the
// k rounds gathers every lane's word under a full mask and ANDs the lanes
// whose bit is set into the verdict; no round waits on another's verdict,
// and nothing leaves the loop early. k ≤ 0 answers every lane present.
//
//go:noescape
func probe8(words *[8]*uint64, start, step *[8]uint64, m uint64, k int) uint8
