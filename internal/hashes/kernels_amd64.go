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

// murmur128x8 is Murmur128 over items[0..7] at once under seed, laid out as
// sip128x8 is: one item per lane, every lane's 16-byte blocks gathered from
// its own slice, a lane with no block left masked off. A lane of eight bytes
// or more loads its tail words itself, by murmurTail's rule; for a shorter
// item i, short[i] is murmurTail(items[i])'s k1 (its k2 is 0), and short[i]
// is not read otherwise. It writes item i's (h1, h2) to digests[i] and
// h1 >> shift to shards[i]. The caller checks haveMurmur128x8 first.
//
//go:noescape
func murmur128x8(seed uint64, items [][]byte, short *[8]uint64, shift uint64, shards *[8]uint16, digests *[8]PlacementDigest)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// haveSip128x8 and haveMurmur128x8 report whether this CPU runs each kernel,
// from one reading of its feature bits.
var haveSip128x8, haveMurmur128x8 = func() (bool, bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0, ebx7 uint32
	if maxLeaf >= 7 && ecx1&(1<<27) != 0 {
		xcr0 = xgetbv0()
		_, ebx7, _, _ = cpuid(7, 0)
	}
	return kernelFeatures(maxLeaf, ecx1, xcr0, ebx7)
}()

// kernelFeatures decides from CPUID and XCR0 which kernels run. Both need
// the OS to save the state their registers use — XCR0 enables SSE, AVX,
// opmask and both ZMM halves (bits 1, 2, 5, 6, 7), which requires OSXSAVE
// (CPUID.1:ECX bit 27) for XGETBV to be there at all — and AVX-512F
// (CPUID.7.0:EBX bit 16); murmur128x8's VPMULLQ needs AVX-512DQ (bit 17)
// too. ebx7 means nothing below leaf 7, nor xcr0 without OSXSAVE.
func kernelFeatures(maxLeaf, ecx1, xcr0, ebx7 uint32) (sip, murmur bool) {
	if maxLeaf < 7 || ecx1&(1<<27) == 0 || xcr0&0xe6 != 0xe6 {
		return false, false
	}
	sip = ebx7&(1<<16) != 0
	return sip, sip && ebx7&(1<<17) != 0
}
