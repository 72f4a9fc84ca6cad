package hashes

// sip128x8 is sipHash128 over items[0..7] at once under the key whose
// initial state (v0, v1, v2, v3, the 128-bit tweak folded in) init holds:
// one item per 64-bit lane of the AVX-512F registers, every lane's whole
// words gathered from its own slice, a lane whose item has no word left
// masked off while the longer ones finish. last[i] is sipLastBlock(items[i]).
// It writes item i's two output words to digests[i] and w0 >> shift to
// shards[i]. The caller checks haveSip128x8 first.
//
//go:noescape
func sip128x8(init *[4]uint64, items [][]byte, last *[8]uint64, shift uint64, shards *[8]uint16, digests *[8]PlacementDigest)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// haveSip128x8 reports whether this CPU runs sip128x8: it has AVX-512F
// (CPUID.7.0:EBX bit 16), and the OS saves the state its registers use —
// XCR0 enables SSE, AVX, opmask and both ZMM halves (bits 1, 2, 5, 6, 7),
// which requires OSXSAVE (CPUID.1:ECX bit 27) for XGETBV to be there at all.
var haveSip128x8 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	if xcr0 := xgetbv0(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0
}()
