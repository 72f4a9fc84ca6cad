package hashes

import (
	"encoding/binary"
	"math/bits"
	"testing"
)

// SipHash-2-4 and MurmurHash3 x64-128 as they stood before their tails were
// read with word loads: a byte loop for SipHash's last block and a 16-way
// switch for Murmur's tail. Every placement layout, digest family and
// attack reads these functions' bits, so the kernels must keep them exactly.
// This is reference code: do not tidy it. FuzzKernelsMatchOracle (a CI step)
// and TestKernelsMatchOracle hold the kernels to it.

func oracleSipHash24(key SipKey, data []byte) uint64 {
	v0, v1, v2, v3 := oracleSipAbsorb(key, 0, data)
	v2 ^= 0xff
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	return v0 ^ v1 ^ v2 ^ v3
}

func oracleSipHash128(key SipKey, data []byte) (w0, w1 uint64) {
	v0, v1, v2, v3 := oracleSipAbsorb(key, 0xee, data)
	v2 ^= 0xee
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	w0 = v0 ^ v1 ^ v2 ^ v3
	v1 ^= 0xdd
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	return w0, v0 ^ v1 ^ v2 ^ v3
}

func oracleSipAbsorb(key SipKey, tweak uint64, data []byte) (v0, v1, v2, v3 uint64) {
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

func oracleMurmur128(data []byte, seed uint64) (uint64, uint64) {
	h1, h2 := seed, seed
	n := uint64(len(data))
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

	var k1, k2 uint64
	switch len(data) & 15 {
	case 15:
		k2 ^= uint64(data[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(data[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(data[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(data[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(data[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(data[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(data[8])
		k2 *= murmur64C2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= murmur64C1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(data[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(data[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(data[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(data[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(data[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(data[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(data[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(data[0])
		k1 *= murmur64C1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= murmur64C2
		h1 ^= k1
	}

	h1 ^= n
	h2 ^= n
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// checkKernels compares every kernel with the oracle on msg: SipHash24,
// sipHash128 in both output lengths, and Murmur128.
func checkKernels(t *testing.T, key SipKey, seed uint64, msg []byte) {
	t.Helper()
	if got, want := SipHash24(key, msg), oracleSipHash24(key, msg); got != want {
		t.Fatalf("len %d: SipHash24 = %#x, oracle %#x", len(msg), got, want)
	}
	w0, w1 := oracleSipHash128(key, msg)
	if g0, g1 := sipHash128(key, msg, true); g0 != w0 || g1 != w1 {
		t.Fatalf("len %d: sipHash128 = %#x %#x, oracle %#x %#x", len(msg), g0, g1, w0, w1)
	}
	if g0, g1 := sipHash128(key, msg, false); g0 != w0 || g1 != 0 {
		t.Fatalf("len %d: first word alone = %#x %#x, want %#x 0", len(msg), g0, g1, w0)
	}
	h1, h2 := Murmur128(msg, seed)
	if o1, o2 := oracleMurmur128(msg, seed); h1 != o1 || h2 != o2 {
		t.Fatalf("len %d: Murmur128 = %#x %#x, oracle %#x %#x", len(msg), h1, h2, o1, o2)
	}
}

// placedAt returns msg's bytes at start offset off inside a larger buffer
// whose other bytes are filler (capacity running on past the item), and a
// copy whose capacity equals its length: a word load placed a few bytes off
// reads filler in the first, and past the item's last byte panics in both.
func placedAt(msg []byte, off int, filler byte) (inside, exact []byte) {
	buf := make([]byte, off+len(msg)+16)
	for i := range buf {
		buf[i] = filler
	}
	inside = buf[off : off+len(msg) : off+len(msg)+8]
	copy(inside, msg)
	exact = make([]byte, len(msg))
	copy(exact, msg)
	return inside, exact
}

// TestKernelsMatchOracle runs every length 0–256 at every start offset 0–7,
// inside a larger buffer and on an exact-capacity copy, under a key and a
// Murmur seed that change with both.
func TestKernelsMatchOracle(t *testing.T) {
	var kb [16]byte
	for i := range kb {
		kb[i] = byte(i)
	}
	key := SipKeyFromBytes(kb)
	msg := make([]byte, 257)
	for i := range msg {
		msg[i] = byte(i*131 + 7)
	}
	for n := 0; n <= 256; n++ {
		for off := 0; off < 8; off++ {
			inside, exact := placedAt(msg[:n], off, 0xa5)
			k := SipKey{key.K0, key.K1 ^ uint64(n<<3|off)}
			checkKernels(t, k, uint64(n*off), inside)
			checkKernels(t, k, uint64(n*off), exact)
		}
	}
}

func FuzzKernelsMatchOracle(f *testing.F) {
	f.Add([]byte("http://h123.ex.org/u/a0000012345abcdef"), uint8(0), uint64(1), uint64(2), uint64(3))
	f.Add([]byte{}, uint8(7), uint64(0), uint64(1<<63), uint64(0))
	f.Add([]byte("0123456789abcde"), uint8(3), uint64(1<<63), uint64(5), uint64(1<<64-1))
	f.Fuzz(func(t *testing.T, msg []byte, off uint8, k0, k1, seed uint64) {
		inside, exact := placedAt(msg, int(off%8), byte(k0))
		checkKernels(t, SipKey{k0, k1}, seed, inside)
		checkKernels(t, SipKey{k0, k1}, seed, exact)
	})
}
