package hashes

import (
	"encoding/binary"
	"math/bits"
)

// MurmurHash3 constants (Austin Appleby's reference implementation).
const (
	murmur32C1 = 0xcc9e2d51
	murmur32C2 = 0x1b873593
	murmur64C1 = 0x87c37b91114253d5
	murmur64C2 = 0x4cf5ad432745937f
)

// Murmur32 computes the 32-bit x86 variant of MurmurHash3 with the given
// seed — the function dablooms feeds to its Kirsch–Mitzenmacher index
// derivation. The paper's constant-time pre-image claim is made good on the
// 128-bit variant the service derives its naive indexes from
// (invert128.go).
func Murmur32(data []byte, seed uint32) uint32 {
	h := seed
	n := uint32(len(data))
	for len(data) >= 4 {
		k := binary.LittleEndian.Uint32(data)
		data = data[4:]
		h ^= murmur32Scramble(k)
		h = bits.RotateLeft32(h, 13)
		h = h*5 + 0xe6546b64
	}
	var k uint32
	switch len(data) {
	case 3:
		k ^= uint32(data[2]) << 16
		fallthrough
	case 2:
		k ^= uint32(data[1]) << 8
		fallthrough
	case 1:
		k ^= uint32(data[0])
		h ^= murmur32Scramble(k)
	}
	h ^= n
	return fmix32(h)
}

// murmur32Scramble applies the per-block mixing of the 32-bit variant.
func murmur32Scramble(k uint32) uint32 {
	k *= murmur32C1
	k = bits.RotateLeft32(k, 15)
	k *= murmur32C2
	return k
}

// fmix32 is MurmurHash3's 32-bit finalizer. Every step is a bijection on
// uint32, like fmix64's on uint64 (see InvertFmix64).
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// fmix64 is MurmurHash3's 64-bit finalizer.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Murmur128 computes the 128-bit x64 variant of MurmurHash3, returning the
// two 64-bit halves. Bloom filters use the halves as the h1/h2 pair of the
// Kirsch–Mitzenmacher derivation ("less hashing, same performance").
func Murmur128(data []byte, seed uint64) (uint64, uint64) {
	h1, h2 := seed, seed
	n := len(data)
	for p := data; len(p) >= 16; p = p[16:] {
		k1 := binary.LittleEndian.Uint64(p)
		k2 := binary.LittleEndian.Uint64(p[8:])

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

	// A zero k mixes to zero, so both tail words are mixed unconditionally:
	// the reference skips exactly those.
	k1, k2 := murmurTail(data)
	k2 *= murmur64C2
	k2 = bits.RotateLeft64(k2, 33)
	k2 *= murmur64C1
	h2 ^= k2
	k1 *= murmur64C1
	k1 = bits.RotateLeft64(k1, 31)
	k1 *= murmur64C2
	h1 ^= k1

	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// murmurTail returns Murmur128's tail words: the r = 0–15 bytes of data past
// its last whole 16-byte block, the first eight little-endian in k1, the rest
// in k2. From eight bytes of data on, with s = 8r the tail's bits, k2 is the
// word that ends at the last byte shifted right by 128 − s (zero until the
// tail passes eight bytes: a shift of 64 or more leaves zero), and k1 the
// word that starts at the tail (eight bytes or more) or ends at the last
// byte shifted right by 64 − s (fewer), chosen by a mask, not a branch: r is
// as random as the item lengths. murmur128x8 loads a lane's tail words by
// this same arithmetic and takes a shorter item's from here. It stays within
// the inliner's budget, so Murmur128 pays no call for it.
func murmurTail(data []byte) (k1, k2 uint64) {
	n := len(data)
	if n < 8 {
		for i, b := range data {
			k1 |= uint64(b) << (8 * i)
		}
		return k1, 0
	}
	s := 8 * uint(n&15)
	return binary.LittleEndian.Uint64(data[n-8-int((s-64)&-(s>>6)>>3):]) >> ((64 - s) &^ -(s >> 6)),
		binary.LittleEndian.Uint64(data[n-8:]) >> (128 - s)
}

// Murmur64 returns the first 64-bit half of Murmur128; a convenient 64-bit
// non-cryptographic hash for salted index derivation.
func Murmur64(data []byte, seed uint64) uint64 {
	h1, _ := Murmur128(data, seed)
	return h1
}
