package hashes

import (
	"encoding/binary"
	"math/bits"
)

// SipHash-2-4 (Aumasson & Bernstein), the keyed short-input PRF the paper
// benchmarks in Table 2 as the fast, secure alternative to both raw
// MurmurHash and full HMAC constructions. Implemented from the reference
// specification; 128-bit key, 64-bit output, and the specification's 128-bit
// output variant for the placement layouts that draw route and indexes from
// one call.

// SipKey is a 128-bit SipHash key.
type SipKey struct {
	K0, K1 uint64
}

// SipKeyFromBytes builds a key from the first 16 bytes of b, little-endian,
// matching the reference implementation's key layout.
func SipKeyFromBytes(b [16]byte) SipKey {
	return SipKey{
		K0: binary.LittleEndian.Uint64(b[0:8]),
		K1: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// SipHash24 computes SipHash-2-4 of data under key.
func SipHash24(key SipKey, data []byte) uint64 {
	v0, v1, v2, v3 := sipAbsorb(key, 0, data)
	v2 ^= 0xff
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	return v0 ^ v1 ^ v2 ^ v3
}

// sipHash128 computes SipHash-2-4 with 128-bit output (the reference
// implementation's outlen = 16 variant) as its two 64-bit output words in
// order. The second word costs four more finalization rounds on top of the
// first; a caller that will not read it passes both = false and gets zero.
func sipHash128(key SipKey, data []byte, both bool) (w0, w1 uint64) {
	v0, v1, v2, v3 := sipAbsorb(key, 0xee, data)
	v2 ^= 0xee
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	w0 = v0 ^ v1 ^ v2 ^ v3
	if !both {
		return w0, 0
	}
	v1 ^= 0xdd
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	return w0, v0 ^ v1 ^ v2 ^ v3
}

// sipAbsorb is SipHash-2-4's keyed initialization and compression of data:
// the state the finalization starts from. tweak is XORed into v1 after
// keying — zero for the 64-bit output, 0xee for the 128-bit one.
func sipAbsorb(key SipKey, tweak uint64, data []byte) (v0, v1, v2, v3 uint64) {
	v0 = key.K0 ^ 0x736f6d6570736575
	v1 = key.K1 ^ 0x646f72616e646f6d ^ tweak
	v2 = key.K0 ^ 0x6c7967656e657261
	v3 = key.K1 ^ 0x7465646279746573

	n := len(data)
	for len(data) >= 8 {
		m := binary.LittleEndian.Uint64(data)
		data = data[8:]
		v3 ^= m
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0 ^= m
	}

	// Final block: remaining bytes, zero padding, length in the top byte.
	m := uint64(n) << 56
	for i, b := range data {
		m |= uint64(b) << (8 * uint(i))
	}
	v3 ^= m
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= m
	return v0, v1, v2, v3
}

func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0 += v1
	v1 = bits.RotateLeft64(v1, 13)
	v1 ^= v0
	v0 = bits.RotateLeft64(v0, 32)
	v2 += v3
	v3 = bits.RotateLeft64(v3, 16)
	v3 ^= v2
	v0 += v3
	v3 = bits.RotateLeft64(v3, 21)
	v3 ^= v0
	v2 += v1
	v1 = bits.RotateLeft64(v1, 17)
	v1 ^= v2
	v2 = bits.RotateLeft64(v2, 32)
	return v0, v1, v2, v3
}
