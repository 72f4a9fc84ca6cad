package hashes

// This file inverts MurmurHash3's 32-bit finalizer, the building block of
// the paper's remark (§6.2): "The forgery of the required URLs is
// straightforward since MurmurHash can be inverted in constant time." Every
// step of the hash is a bijection, so it runs backwards; invert128.go does so
// for the whole 128-bit variant, the one the service's naive mode derives its
// indexes from.

// Modular inverses of the odd finalizer constants modulo 2^32.
var (
	invFmixC1 = mulInverse32(0x85ebca6b)
	invFmixC2 = mulInverse32(0xc2b2ae35)
)

// mulInverse32 returns x such that a*x ≡ 1 (mod 2^32). a must be odd.
// Newton–Hensel iteration doubles the number of correct bits each round.
func mulInverse32(a uint32) uint32 {
	x := a // correct to 3 bits for odd a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// unxorshiftRight inverts h ^= h >> s for 0 < s < 32.
func unxorshiftRight(h uint32, s uint) uint32 {
	// Recover the bits top-down: each block of s bits depends only on the
	// block above it, so iterating the forward op enough times converges.
	res := h
	for i := s; i < 32; i += s {
		res = h ^ (res >> s)
	}
	return res
}

// InvertFmix32 inverts MurmurHash3's 32-bit finalizer: fmix32(InvertFmix32(d)) == d.
func InvertFmix32(h uint32) uint32 {
	h = unxorshiftRight(h, 16)
	h *= invFmixC2
	h = unxorshiftRight(h, 13)
	h *= invFmixC1
	h = unxorshiftRight(h, 16)
	return h
}
