package hashes

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// An IndexFamily turns an item into its k Bloom-filter indexes
// I_x = {h_1(x) mod m, …, h_k(x) mod m}. Implementations are not safe for
// concurrent use (they reuse digest state); Clone one per goroutine.
type IndexFamily interface {
	// Indexes appends the k indexes of item, each in [0, m), to dst.
	Indexes(dst []uint64, item []byte) []uint64
	// K returns the number of indexes produced per item.
	K() int
	// M returns the filter size the indexes are reduced against.
	M() uint64
	// Clone returns an independent family with identical behaviour.
	Clone() IndexFamily
}

// DigestCounter is implemented by families that count underlying digest
// computations; Table 2 compares naive vs recycling by exactly this number.
type DigestCounter interface {
	// DigestCalls returns how many base-hash invocations one Indexes call costs.
	DigestCalls() int
}

// ---------------------------------------------------------------------------
// Salted: the pyBloom layout — k independent salted digests.

// Salted derives index i from a digest salted with i. This is the "naive"
// scheme of Table 2: k full hash computations per item.
type Salted struct {
	d *Digester
	k int
	m uint64
}

// NewSalted builds a salted family of k indexes over a filter of m bits.
func NewSalted(d *Digester, k int, m uint64) (*Salted, error) {
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	return &Salted{d: d, k: k, m: m}, nil
}

// Indexes implements IndexFamily.
func (s *Salted) Indexes(dst []uint64, item []byte) []uint64 {
	for i := 0; i < s.k; i++ {
		dst = append(dst, s.d.Sum64(item, uint32(i))%s.m)
	}
	return dst
}

// K implements IndexFamily.
func (s *Salted) K() int { return s.k }

// M implements IndexFamily.
func (s *Salted) M() uint64 { return s.m }

// DigestCalls implements DigestCounter.
func (s *Salted) DigestCalls() int { return s.k }

// Clone implements IndexFamily.
func (s *Salted) Clone() IndexFamily {
	return &Salted{d: s.d.Clone(), k: s.k, m: s.m}
}

// ---------------------------------------------------------------------------
// DoubleHashing: the Kirsch–Mitzenmacher derivation used by dablooms.

// DoubleHashing computes g_i(x) = h1(x) + i·h2(x) mod m from a single
// 128-bit MurmurHash3 call ("less hashing, same performance", §6.1). Keeping
// h2 odd relative to even m would be needed for full cycle coverage; like
// dablooms we use the raw form the paper attacks.
type DoubleHashing struct {
	k    int
	m    uint64
	seed uint64
}

// NewDoubleHashing builds a Kirsch–Mitzenmacher family with the given seed.
func NewDoubleHashing(k int, m uint64, seed uint64) (*DoubleHashing, error) {
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	return &DoubleHashing{k: k, m: m, seed: seed}, nil
}

// Indexes implements IndexFamily. The digest halves are reduced modulo m
// first and the progression accumulated in reduced space, so the index set
// is a true arithmetic progression g_i = (h1 + i·h2) mod m — raw uint64
// accumulation would wrap modulo 2^64 and break the structure.
func (d *DoubleHashing) Indexes(dst []uint64, item []byte) []uint64 {
	h1, h2 := Murmur128(item, d.seed)
	g := h1 % d.m
	step := h2 % d.m
	for i := 0; i < d.k; i++ {
		dst = append(dst, g)
		g += step
		if g >= d.m {
			g -= d.m
		}
	}
	return dst
}

// K implements IndexFamily.
func (d *DoubleHashing) K() int { return d.k }

// M implements IndexFamily.
func (d *DoubleHashing) M() uint64 { return d.m }

// Seed returns the MurmurHash3 seed. The threat model treats it as public
// (it is a compile-time constant in dablooms), which is what lets the
// instant pre-image attacks work.
func (d *DoubleHashing) Seed() uint64 { return d.seed }

// DigestCalls implements DigestCounter.
func (d *DoubleHashing) DigestCalls() int { return 1 }

// Clone implements IndexFamily.
func (d *DoubleHashing) Clone() IndexFamily {
	cp := *d
	return &cp
}

// ---------------------------------------------------------------------------
// Recycling: §8.2 — slice k·⌈log₂m⌉ bits out of as few digests as possible.

// Recycling consumes ⌈log₂m⌉ bits per index from the digest stream
// digest(0‖x), digest(1‖x), …, calling the base hash only when bits run out.
// With SHA-512 one call covers any optimal filter with f ≥ 2⁻¹⁵ and m below
// a GByte (Fig 9), which is what makes cryptographic hashing affordable
// (Table 2).
//
// The bit layout is a storage format — hardened snapshots, WAL replay and
// data directories are readable only while a key keeps landing on the same
// bits — so it is fixed: index i of a digest is bits [i·b, (i+1)·b) counted
// from the most significant end of the digest's big-endian spelling,
// b = ⌈log₂m⌉; a digest yields ⌊ℓ/b⌋ whole indexes and its remaining bits are
// dropped; digest j is salted with j. index_oracle_test.go holds the first
// implementation and the fuzz target that compares against it.
type Recycling struct {
	d         *Digester
	k         int
	m         uint64
	bitsPer   int
	perDigest int // whole indexes one digest yields
}

// NewRecycling builds a recycling family over a filter of m bits.
func NewRecycling(d *Digester, k int, m uint64) (*Recycling, error) {
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	bp := BitsPerIndex(m)
	if bp > d.Bits() {
		return nil, fmt.Errorf("hashes: one index needs %d bits but %v yields only %d", bp, d.Algorithm(), d.Bits())
	}
	return &Recycling{d: d, k: k, m: m, bitsPer: bp, perDigest: d.Bits() / bp}, nil
}

// BitsPerIndex returns ⌈log₂ m⌉, the digest bits one index consumes (§8.2).
func BitsPerIndex(m uint64) int {
	if m <= 1 {
		return 1
	}
	return bits.Len64(m - 1)
}

// RequiredBits returns k·⌈log₂m⌉, the total digest bits one item consumes —
// the y-axis of Fig 9.
func RequiredBits(k int, m uint64) int { return k * BitsPerIndex(m) }

// DigestCallsFor returns how many invocations of alg one item costs under
// recycling: ⌈k·⌈log₂m⌉ / ℓ⌉ where ℓ is the digest length. Partial indexes
// never straddle two digests (each digest yields ⌊ℓ/⌈log₂m⌉⌋ whole indexes),
// matching the salt-and-recycle construction in the paper.
func DigestCallsFor(alg Algorithm, k int, m uint64) int {
	per := alg.DigestBits() / BitsPerIndex(m)
	if per == 0 {
		return 0 // digest too short for even one index
	}
	return (k + per - 1) / per
}

// Indexes implements IndexFamily. A register-sized digest (SipHash-2-4,
// the hardened serving path) is sliced as the one uint64 it is; a longer one
// is sliced through 64-bit windows of its zero-padded bytes, one window per
// ⌊64/b⌋ indexes, by the same routine.
func (r *Recycling) Indexes(dst []uint64, item []byte) []uint64 {
	ell := r.d.Bits()
	var salt uint32
	for left := r.k; left > 0; salt++ {
		n := min(left, r.perDigest)
		left -= n
		if ell <= 64 {
			dst = r.slice(dst, r.d.sum64(item, salt)<<uint(64-ell), n)
			continue
		}
		digest := r.d.padded(item, salt)
		perWindow := 64 / r.bitsPer
		for pos := 0; n > 0; pos += perWindow * r.bitsPer {
			at, off := pos>>3, uint(pos&7)
			// Nine bytes cover any 64-bit window; padded keeps them in range.
			w := binary.BigEndian.Uint64(digest[at:])<<off | uint64(digest[at+8])>>(8-off)
			g := min(n, perWindow)
			dst = r.slice(dst, w, g)
			n -= g
		}
	}
	return dst
}

// slice appends the n leading bitsPer-bit groups of w, most significant
// first, each reduced into [0, m). One compare-and-subtract is the whole
// reduction: bitsPer = bits.Len64(m-1) means 2^(bitsPer-1) ≤ m, so a group
// v < 2^bitsPer ≤ 2m.
func (r *Recycling) slice(dst []uint64, w uint64, n int) []uint64 {
	b, m := uint(r.bitsPer), r.m
	for ; n > 0; n-- {
		v := w >> (64 - b)
		w <<= b
		if v >= m {
			v -= m
		}
		dst = append(dst, v)
	}
	return dst
}

// K implements IndexFamily.
func (r *Recycling) K() int { return r.k }

// M implements IndexFamily.
func (r *Recycling) M() uint64 { return r.m }

// DigestCalls implements DigestCounter.
func (r *Recycling) DigestCalls() int { return DigestCallsFor(r.d.Algorithm(), r.k, r.m) }

// Clone implements IndexFamily.
func (r *Recycling) Clone() IndexFamily {
	cp := *r
	cp.d = r.d.Clone()
	return &cp
}

// ---------------------------------------------------------------------------
// MD5Split: Squid's cache-digest derivation (§7).

// MD5Split hashes the item once with unsalted MD5 and splits the 128-bit
// digest into four 32-bit words, each reduced mod m — exactly how Squid
// derives its four cache-digest indexes from the store key.
type MD5Split struct {
	m uint64
}

// NewMD5Split builds the Squid family; k is fixed at 4.
func NewMD5Split(m uint64) (*MD5Split, error) {
	if err := checkKM(4, m); err != nil {
		return nil, err
	}
	return &MD5Split{m: m}, nil
}

// Indexes implements IndexFamily.
func (s *MD5Split) Indexes(dst []uint64, item []byte) []uint64 {
	sum := md5.Sum(item)
	for i := 0; i < 4; i++ {
		w := binary.BigEndian.Uint32(sum[4*i:])
		dst = append(dst, uint64(w)%s.m)
	}
	return dst
}

// K implements IndexFamily.
func (s *MD5Split) K() int { return 4 }

// M implements IndexFamily.
func (s *MD5Split) M() uint64 { return s.m }

// DigestCalls implements DigestCounter.
func (s *MD5Split) DigestCalls() int { return 1 }

// Clone implements IndexFamily.
func (s *MD5Split) Clone() IndexFamily {
	cp := *s
	return &cp
}

func checkKM(k int, m uint64) error {
	if k <= 0 {
		return fmt.Errorf("hashes: k must be positive, got %d", k)
	}
	if m == 0 {
		return fmt.Errorf("hashes: filter size m must be positive")
	}
	return nil
}
