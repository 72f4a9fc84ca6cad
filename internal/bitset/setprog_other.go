//go:build !amd64 || race

package bitset

// Only amd64 has the set kernel, and -race builds leave it out: the race
// detector sees no store an assembly kernel makes, so those builds set bits
// with the Go loop over SetAtomic and keep every word access visible to it.
const haveSetKernel = false

func setProgression(*uint64, uint64, uint64, uint64, int) int {
	panic("bitset: setProgression outside amd64")
}
