package cpufeat

// AVX512F reports whether this CPU and OS run AVX-512F code (ZMM registers,
// opmasks, gathers); AVX512DQ whether they run AVX-512DQ on top of it
// (VPMULLQ). Both come from one reading of the feature bits.
var AVX512F, AVX512DQ = func() (bool, bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0, ebx7 uint32
	if maxLeaf >= 7 && ecx1&(1<<27) != 0 {
		xcr0 = xgetbv0()
		_, ebx7, _, _ = cpuid(7, 0)
	}
	return kernelFeatures(maxLeaf, ecx1, xcr0, ebx7)
}()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
