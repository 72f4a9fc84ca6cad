package hashes

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// Reference vectors for MurmurHash3 x86 32-bit, cross-checked against the
// canonical C++ implementation and the widely published verification set.
func TestMurmur32Vectors(t *testing.T) {
	cases := []struct {
		data string
		seed uint32
		want uint32
	}{
		{"", 0, 0x00000000},
		{"", 1, 0x514E28B7},
		{"", 0xffffffff, 0x81F16F39},
		{"\xff\xff\xff\xff", 0, 0x76293B50},
		{"\x21\x43\x65\x87", 0, 0xF55B516B},
		{"\x21\x43\x65\x87", 0x5082EDEE, 0x2362F9DE},
		{"\x21\x43\x65", 0, 0x7E4A8634},
		{"\x21\x43", 0, 0xA0F7B07A},
		{"\x21", 0, 0x72661CF4},
		{"\x00\x00\x00\x00", 0, 0x2362F9DE},
		{"\x00\x00\x00", 0, 0x85F0B427},
		{"\x00\x00", 0, 0x30F4C306},
		{"\x00", 0, 0x514E28B7},
		{"aaaa", 0x9747b28c, 0x5A97808A},
		{"aaa", 0x9747b28c, 0x283E0130},
		{"aa", 0x9747b28c, 0x5D211726},
		{"a", 0x9747b28c, 0x7FA09EA6},
		{"abcd", 0x9747b28c, 0xF0478627},
		{"abc", 0x9747b28c, 0xC84A62DD},
		{"ab", 0x9747b28c, 0x74875592},
		{"Hello, world!", 0x9747b28c, 0x24884CBA},
	}
	for _, c := range cases {
		if got := Murmur32([]byte(c.data), c.seed); got != c.want {
			t.Errorf("Murmur32(%q, %#x) = %#x, want %#x", c.data, c.seed, got, c.want)
		}
	}
}

func TestMurmur128Basics(t *testing.T) {
	// Empty input with zero seed collapses to (0, 0) by construction.
	h1, h2 := Murmur128(nil, 0)
	if h1 != 0 || h2 != 0 {
		t.Errorf("Murmur128(nil, 0) = (%#x, %#x), want (0, 0)", h1, h2)
	}
	// Determinism and seed sensitivity.
	a1, a2 := Murmur128([]byte("http://example.com/"), 42)
	b1, b2 := Murmur128([]byte("http://example.com/"), 42)
	if a1 != b1 || a2 != b2 {
		t.Error("Murmur128 not deterministic")
	}
	c1, c2 := Murmur128([]byte("http://example.com/"), 43)
	if a1 == c1 && a2 == c2 {
		t.Error("Murmur128 ignores the seed")
	}
}

// Every tail length 0..16 must be exercised without panics and produce
// distinct digests for distinct inputs (with overwhelming probability).
func TestMurmur128TailLengths(t *testing.T) {
	seen := map[uint64]int{}
	base := []byte("0123456789abcdef0123456789abcdef")
	for n := 0; n <= len(base); n++ {
		h1, _ := Murmur128(base[:n], 0)
		if prev, dup := seen[h1]; dup {
			t.Errorf("length %d collides with length %d", n, prev)
		}
		seen[h1] = n
	}
}

func TestMurmur32AvalancheSmoke(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	data := []byte("The quick brown fox jumps over the lazy dog")
	h := Murmur32(data, 0)
	var totalFlips, trials int
	for i := range data {
		for b := 0; b < 8; b++ {
			mutated := make([]byte, len(data))
			copy(mutated, data)
			mutated[i] ^= 1 << b
			diff := h ^ Murmur32(mutated, 0)
			totalFlips += popcount32(diff)
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 12 || avg > 20 {
		t.Errorf("average flipped output bits = %.2f, want ≈16", avg)
	}
}

func popcount32(v uint32) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func TestMurmur64MatchesFirstHalf(t *testing.T) {
	data := []byte("consistency")
	h1, _ := Murmur128(data, 99)
	if got := Murmur64(data, 99); got != h1 {
		t.Errorf("Murmur64 = %#x, want first half %#x", got, h1)
	}
}

// Uniformity smoke test: reduced digests of sequential URLs should fill a
// small filter close to the binomial expectation.
func TestMurmur32DistributionSmoke(t *testing.T) {
	const m, n = 1024, 10000
	counts := make([]int, m)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		item := []byte{byte(rng.Int()), byte(rng.Int()), byte(rng.Int()), byte(i), byte(i >> 8), byte(i >> 16)}
		counts[Murmur32(item, 0)%m]++
	}
	// Chi-squared against uniform; dof=1023, generous bound ≈ dof+5·sqrt(2·dof).
	expected := float64(n) / float64(m)
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 1023+5*45.2 {
		t.Errorf("chi-squared = %.1f, too far from uniform", chi2)
	}
}

// smhasherVerification is SMHasher's VerificationTest: hash keys {}, {0},
// {0,1}, … {0..254} with seed 256−i, hash the concatenated outputs with seed
// 0, and read the first four bytes little-endian. It reaches every tail
// length and 256 seeds in one number.
func smhasherVerification(width int, hash func(key []byte, seed uint32) []byte) uint32 {
	key := make([]byte, 256)
	out := make([]byte, 0, width*256)
	for i := 0; i < 256; i++ {
		key[i] = byte(i)
		out = append(out, hash(key[:i], uint32(256-i))...)
	}
	return binary.LittleEndian.Uint32(hash(out, 0))
}

// SMHasher's published verification values pin both variants bit for bit:
// naive placement, the murmur-double digest family and the §5 preimage
// attack all read Murmur128.
func TestMurmurSMHasherVerification(t *testing.T) {
	x64 := smhasherVerification(16, func(key []byte, seed uint32) []byte {
		h1, h2 := Murmur128(key, uint64(seed))
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, h1), h2)
	})
	if x64 != 0x6384BA69 {
		t.Errorf("MurmurHash3_x64_128 verification = %#08x, want 0x6384BA69", x64)
	}
	x86 := smhasherVerification(4, func(key []byte, seed uint32) []byte {
		return binary.LittleEndian.AppendUint32(nil, Murmur32(key, seed))
	})
	if x86 != 0xB0F57EE3 {
		t.Errorf("MurmurHash3_x86_32 verification = %#08x, want 0xB0F57EE3", x86)
	}
}
