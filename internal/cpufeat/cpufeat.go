// Package cpufeat is the one CPU probe behind the repository's assembly
// kernels: it reads CPUID and XCR0 once, at start-up, and reports which
// vector extensions a kernel may use. hashes (the eight-lane routing
// kernels) and bitset (the eight-lane probe kernel) both ask it, so every
// kernel decides from the same reading. On architectures other than amd64
// every feature reads false.
package cpufeat

// kernelFeatures decides from CPUID and XCR0 which AVX-512 subsets the
// kernels may use. Each needs the OS to save the state its registers use —
// XCR0 enables SSE, AVX, opmask and both ZMM halves (bits 1, 2, 5, 6, 7),
// which requires OSXSAVE (CPUID.1:ECX bit 27) for XGETBV to be there at
// all — and AVX-512F (CPUID.7.0:EBX bit 16); dq also needs AVX-512DQ
// (bit 17). ebx7 means nothing below leaf 7, nor xcr0 without OSXSAVE.
func kernelFeatures(maxLeaf, ecx1, xcr0, ebx7 uint32) (f, dq bool) {
	if maxLeaf < 7 || ecx1&(1<<27) == 0 || xcr0&0xe6 != 0xe6 {
		return false, false
	}
	f = ebx7&(1<<16) != 0
	return f, f && ebx7&(1<<17) != 0
}
