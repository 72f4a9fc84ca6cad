package hashes

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"
)

// Layout names a placement rule: how an item becomes a shard number and k
// indexes inside that shard. A layout is a storage format — a data directory,
// WAL, snapshot or digest is readable only while every key keeps landing on
// the same shard and bits — so a shipped layout never changes; a better rule
// is a new Layout. docs/ARCHITECTURE.md "Placement layouts" has both bit by bit.
type Layout uint8

const (
	// LayoutV1 routes with its own hash: shard = SipHash-2-4(RouteKey, item)
	// mod shards, then indexes by DoubleHashing(Seed) or, keyed, by Recycling
	// over SipHash-2-4 under the shard's own key SHA-256(Key ‖ shard)[:16].
	// Every store written before layouts had numbers is v1.
	LayoutV1 Layout = 1
	// LayoutV2 takes route and indexes from one hash. Unkeyed: one
	// Murmur-128 call, the shard is the top log₂(shards) bits of h1, the
	// indexes the same (h1 mod m) + i·(h2 mod m) progression as v1. Keyed:
	// SipHash-2-4 with 128-bit output under one store-wide key, digest j
	// salted with j, read as one bit stream — log₂(shards) bits route, then
	// k groups of ⌈log₂ m⌉ bits index; no bit is used twice.
	LayoutV2 Layout = 2
)

// Known reports whether this build can place under l — what a decoder asks of
// a version field before trusting the bits behind it.
func (l Layout) Known() bool { return l == LayoutV1 || l == LayoutV2 }

// PlacementSpec is everything a placement rule is a function of.
type PlacementSpec struct {
	Layout Layout
	// Keyed selects the keyed (hardened) rule of the layout.
	Keyed bool
	// Shards must be a power of two.
	Shards int
	K      int
	M      uint64
	// Seed is the public Murmur-128 seed of the unkeyed rules.
	Seed uint64
	// Key is the 16-byte index secret of the keyed rules.
	Key []byte
	// RouteKey is the 16-byte routing secret: v1's routing hash is keyed
	// with it, keyed v2 folds it into its one key, unkeyed v2 ignores it.
	RouteKey []byte
}

// PlacementDigest is what Route learned about an item beyond its shard, for
// Indexes to finish from: under v2 the item's first digest, under v1 nothing.
type PlacementDigest struct{ w0, w1 uint64 }

// A Placement turns items into (shard, k indexes) under one spec. It is
// immutable, safe for concurrent use, and the only implementation of the rule:
// the sharded store and a peer evaluating an exported digest both call it.
type Placement struct {
	spec      PlacementSpec
	routeBits uint   // log₂(shards)
	recip     uint64 // ⌊(2⁶⁴−1)/m⌋, for mod
	route     SipKey // v1
	// keys holds the keyed rules' SipHash keys: one per shard under v1, a
	// single one under v2.
	keys    []SipKey
	bitsPer uint
	// restN is how many whole indexes one digest of a keyed item yields (v1:
	// 64 bits each; v2: 128) and firstN the same for a v2 item's first
	// digest, which is short of its routing bits; firstBoth reports whether
	// that first digest is read past its first 64 bits.
	firstN, restN int
	firstBoth     bool
}

// NewPlacement validates spec and precomputes its keys.
func NewPlacement(spec PlacementSpec) (*Placement, error) {
	if err := checkKM(spec.K, spec.M); err != nil {
		return nil, err
	}
	if spec.Shards < 1 || spec.Shards&(spec.Shards-1) != 0 {
		return nil, fmt.Errorf("hashes: shard count %d is not a power of two", spec.Shards)
	}
	p := &Placement{
		spec:      spec,
		routeBits: uint(bits.TrailingZeros(uint(spec.Shards))),
		recip:     math.MaxUint64 / spec.M,
		bitsPer:   uint(BitsPerIndex(spec.M)),
	}
	if spec.Keyed && len(spec.Key) != 16 {
		return nil, fmt.Errorf("hashes: keyed placement needs a 16-byte key, got %d", len(spec.Key))
	}
	switch spec.Layout {
	case LayoutV1:
		if spec.Shards > 1 && len(spec.RouteKey) != 16 {
			return nil, fmt.Errorf("hashes: layout v1 routes by a 16-byte key, got %d", len(spec.RouteKey))
		}
		p.route = sipKey(spec.RouteKey)
		p.restN = int(64 / p.bitsPer)
		if spec.Keyed {
			p.keys = make([]SipKey, spec.Shards)
			for i := range p.keys {
				h := sha256.New()
				h.Write(spec.Key)                                                    //nolint:errcheck // hash writes never fail
				h.Write([]byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}) //nolint:errcheck
				p.keys[i] = sipKey(h.Sum(nil))
			}
		}
	case LayoutV2:
		if spec.Keyed {
			h := sha256.New()
			h.Write([]byte("evilbloom placement v2")) //nolint:errcheck // hash writes never fail
			h.Write(spec.Key)                         //nolint:errcheck
			h.Write(spec.RouteKey)                    //nolint:errcheck
			p.keys = []SipKey{sipKey(h.Sum(nil))}
			p.firstN, p.restN = int((128-p.routeBits)/p.bitsPer), int(128/p.bitsPer)
			p.firstBoth = p.routeBits+uint(min(spec.K, p.firstN))*p.bitsPer > 64
		}
	default:
		return nil, fmt.Errorf("hashes: unknown placement layout %d", spec.Layout)
	}
	return p, nil
}

// sipKey reads a SipHash key from the first 16 bytes of b (zero when b is
// shorter: an unused key).
func sipKey(b []byte) SipKey {
	var kb [16]byte
	copy(kb[:], b)
	return SipKeyFromBytes(kb)
}

// Route returns item's shard and the digest Indexes continues from.
func (p *Placement) Route(item []byte) (int, PlacementDigest) {
	switch {
	case p.spec.Layout == LayoutV1:
		if p.routeBits == 0 {
			return 0, PlacementDigest{}
		}
		return int(SipHash24(p.route, item) & uint64(p.spec.Shards-1)), PlacementDigest{}
	case p.spec.Keyed:
		w0, w1 := sipHash128(p.keys[0], item, p.firstBoth)
		return int(w0 >> (64 - p.routeBits)), PlacementDigest{w0, w1}
	default:
		h1, h2 := Murmur128(item, p.spec.Seed)
		return int(h1 >> (64 - p.routeBits)), PlacementDigest{h1, h2}
	}
}

// Indexes appends the k indexes of item, which Route sent to shard with
// digest d.
func (p *Placement) Indexes(dst []uint64, item []byte, shard int, d PlacementDigest) []uint64 {
	switch {
	case !p.spec.Keyed:
		h1, h2 := d.w0, d.w1
		if p.spec.Layout == LayoutV1 {
			h1, h2 = Murmur128(item, p.spec.Seed)
		}
		// The progression is accumulated in reduced space, as DoubleHashing
		// does: g_i = (h1 + i·h2) mod m.
		m := p.spec.M
		g, step := p.mod(h1), p.mod(h2)
		for i := 0; i < p.spec.K; i++ {
			dst = append(dst, g)
			g += step
			if g >= m {
				g -= m
			}
		}
		return dst
	case p.spec.Layout == LayoutV1:
		// Recycling over the 64-bit SipHash digests salt 0, 1, …: each
		// yields ⌊64/b⌋ whole indexes, most significant bits first.
		key := p.keys[shard]
		for left, salt := p.spec.K, uint64(0); left > 0; salt++ {
			n := min(left, p.restN)
			left -= n
			dst = p.slice(dst, SipHash24(SipKey{key.K0, key.K1 ^ salt}, item), 0, n)
		}
		return dst
	default:
		// The v2 bit stream: digest 0 minus its routing bits, then digests
		// 1, 2, … in full, each giving whole indexes only. A last digest
		// read no further than its first word is computed no further.
		key := p.keys[0]
		w0, w1 := d.w0<<p.routeBits|d.w1>>(64-p.routeBits), d.w1<<p.routeBits
		n := min(p.spec.K, p.firstN)
		for left, salt := p.spec.K, uint64(1); ; salt++ {
			dst = p.slice(dst, w0, w1, n)
			if left -= n; left == 0 {
				return dst
			}
			n = min(left, p.restN)
			w0, w1 = sipHash128(SipKey{key.K0, key.K1 ^ salt}, item, uint(n)*p.bitsPer > 64)
		}
	}
}

// Place is Route then Indexes: one item's whole placement.
func (p *Placement) Place(dst []uint64, item []byte) (int, []uint64) {
	shard, d := p.Route(item)
	return shard, p.Indexes(dst, item, shard, d)
}

// mod returns h mod m without dividing: the quotient estimate from the
// precomputed reciprocal is exact or one short (recip ≥ 2⁶⁴/m − 1 and
// h < 2⁶⁴), so the remainder estimate lies in [0, 2m) and one
// compare-and-subtract finishes it.
func (p *Placement) mod(h uint64) uint64 {
	q, _ := bits.Mul64(h, p.recip)
	r := h - q*p.spec.M
	if r >= p.spec.M {
		r -= p.spec.M
	}
	return r
}

// slice appends the n leading bitsPer-bit groups of the 128-bit register
// w0:w1, most significant first, each reduced into [0, m) as Recycling.slice
// reduces them.
func (p *Placement) slice(dst []uint64, w0, w1 uint64, n int) []uint64 {
	// b is 1 … 64: shifting right by 64−b and left by b−1 then 1 keeps every
	// count below 64, which spares the shifts their range check.
	down, up, m := (64-p.bitsPer)&63, (p.bitsPer-1)&63, p.spec.M
	for ; n > 0; n-- {
		v := w0 >> down
		w0, w1 = w0<<up<<1|w1>>down, w1<<up<<1
		if v >= m {
			v -= m
		}
		dst = append(dst, v)
	}
	return dst
}

// Family returns shard's view of the placement as an IndexFamily, for code
// that sizes a filter from a family (core's constructors).
func (p *Placement) Family(shard int) IndexFamily { return placementFamily{p, shard} }

// placementFamily answers with the indexes an item has in one shard, routed
// there or not.
type placementFamily struct {
	p     *Placement
	shard int
}

func (f placementFamily) Indexes(dst []uint64, item []byte) []uint64 {
	_, d := f.p.Route(item)
	return f.p.Indexes(dst, item, f.shard, d)
}
func (f placementFamily) K() int             { return f.p.spec.K }
func (f placementFamily) M() uint64          { return f.p.spec.M }
func (f placementFamily) Clone() IndexFamily { return f }
