//go:build !amd64

package hashes

// Only amd64 has the eight-lane kernels: cpufeat reports no AVX-512 on any
// other architecture, so these are never called and it routes item by item.

func sip128x8(*[4]uint64, [][]byte, *[8]uint64, uint64, *[8]uint16, *[8]PlacementDigest) {
	panic("hashes: sip128x8 without AVX-512F")
}

func murmur128x8(uint64, [][]byte, *[8]uint64, uint64, *[8]uint16, *[8]PlacementDigest) {
	panic("hashes: murmur128x8 without AVX-512F and AVX-512DQ")
}
