package cpufeat

import "testing"

// TestKernelFeatures holds the CPU probe to the bits each kernel needs: no
// AVX-512 without OS-saved ZMM state, OSXSAVE or leaf 7, and AVX-512DQ
// only on top of AVX-512F.
func TestKernelFeatures(t *testing.T) {
	const (
		osxsave = 1 << 27
		zmm     = 0xe6
		f       = 1 << 16
		dq      = 1 << 17
	)
	for _, tc := range []struct {
		name                      string
		maxLeaf, ecx1, xcr0, ebx7 uint32
		f, dq                     bool
	}{
		{"F and DQ", 7, osxsave, zmm, f | dq, true, true},
		{"F and DQ, more leaves and XCR0 bits", 0x20, osxsave | 1, 0x2ff, f | dq | 1, true, true},
		{"F without DQ", 7, osxsave, zmm, f, true, false},
		{"DQ without F", 7, osxsave, zmm, dq, false, false},
		{"neither", 7, osxsave, zmm, 0, false, false},
		{"ZMM state disabled by the OS", 7, osxsave, 0x07, f | dq, false, false},
		{"upper ZMM halves disabled", 7, osxsave, zmm &^ 0x80, f | dq, false, false},
		{"opmask state disabled", 7, osxsave, zmm &^ 0x20, f | dq, false, false},
		{"no OSXSAVE", 7, 0, zmm, f | dq, false, false},
		{"leaf < 7", 6, osxsave, zmm, f | dq, false, false},
	} {
		if f, dq := kernelFeatures(tc.maxLeaf, tc.ecx1, tc.xcr0, tc.ebx7); f != tc.f || dq != tc.dq {
			t.Errorf("%s: kernelFeatures = (%v, %v), want (%v, %v)", tc.name, f, dq, tc.f, tc.dq)
		}
	}
}
