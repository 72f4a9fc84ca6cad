//go:build !amd64 || race

package bitset

// Only amd64 has the probe kernel, and -race builds leave it out: the race
// detector sees no load an assembly gather makes, so those builds answer
// with the Go loop and keep every word access visible to it.
const haveProbe8 = false

func probe8(*[8]*uint64, *[8]uint64, *[8]uint64, uint64, int) uint8 {
	panic("bitset: probe8 without AVX-512F")
}
