package hashes

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"

	"evilbloom/internal/cpufeat"
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
	// LayoutV3 is keyed only: one SipHash-2-4-128 digest (h1, h2) per item
	// under one store-wide key. The shard is the top log₂(shards) bits of h1,
	// the indexes g_i = (h1 mod m + i·step) mod m with
	// step = 1 + (h2 mod (m − 1)), never 0 (m = 1: every index is 0).
	LayoutV3 Layout = 3
)

// Known reports whether this build can place under l — what a decoder asks of
// a version field before trusting the bits behind it.
func (l Layout) Known() bool { return l >= LayoutV1 && l <= LayoutV3 }

// Places reports whether l has a rule for keyed (hardened) or unkeyed
// placement: every known layout has a keyed one, and all but v3 an unkeyed
// one.
func (l Layout) Places(keyed bool) bool { return l.Known() && (keyed || l != LayoutV3) }

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
	// with it, keyed v2 and v3 fold it into their one key, unkeyed v2
	// ignores it.
	RouteKey []byte
}

// PlacementDigest is what Route learned about an item beyond its shard, for
// Indexes (or Start) to finish from: under v2 and v3 the item's first digest
// (w0, w1), under v1 nothing.
type PlacementDigest struct{ w0, w1 uint64 }

// A Placement turns items into (shard, k indexes) under one spec. It is
// immutable, safe for concurrent use, and the only implementation of the rule:
// the sharded store and a peer evaluating an exported digest both call it.
type Placement struct {
	spec      PlacementSpec
	routeBits uint   // log₂(shards)
	recip     uint64 // ⌊(2⁶⁴−1)/m⌋, for mod
	// starts reports whether Start answers (unkeyed v2, v3); a step is then
	// stepMin + (w1 mod stepM), stepRecip being stepM's reciprocal: w1 mod m
	// unkeyed, 1 + (w1 mod max(m − 1, 1)) under v3.
	starts                    bool
	stepMin, stepM, stepRecip uint64
	route                     SipKey // v1
	// keys holds the keyed rules' SipHash keys: one per shard under v1, a
	// single one under v2 and v3.
	keys    []SipKey
	bitsPer uint
	// restN is how many whole indexes one digest of a keyed item yields (v1:
	// 64 bits each; v2: 128) and firstN the same for a v2 item's first
	// digest, which is short of its routing bits; firstBoth reports whether
	// a keyed item's first digest is read past its first 64 bits.
	firstN, restN int
	firstBoth     bool
	// kernel is the eight-lane kernel RouteBatch runs on this CPU, if any;
	// lanes is the keyed v2/v3 routing hash's initial SipHash state, for
	// sip128x8.
	kernel laneKernel
	lanes  [4]uint64
}

// laneKernel names an eight-lane routing kernel.
type laneKernel uint8

const (
	noKernel     laneKernel = iota
	sipKernel               // sip128x8: keyed v2 and v3
	murmurKernel            // murmur128x8: unkeyed v2
)

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
	if !spec.Layout.Known() {
		return nil, fmt.Errorf("hashes: unknown placement layout %d", spec.Layout)
	}
	if !spec.Layout.Places(spec.Keyed) {
		return nil, fmt.Errorf("hashes: layout v%d is keyed only", spec.Layout)
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
	default: // v2, v3
		if !spec.Keyed {
			p.starts, p.stepM, p.stepRecip = true, spec.M, p.recip
			if cpufeat.AVX512DQ {
				p.kernel = murmurKernel
			}
			break
		}
		h := sha256.New()
		fmt.Fprintf(h, "evilbloom placement v%d", spec.Layout) //nolint:errcheck // hash writes never fail
		h.Write(spec.Key)                                      //nolint:errcheck
		h.Write(spec.RouteKey)                                 //nolint:errcheck
		p.keys = []SipKey{sipKey(h.Sum(nil))}
		p.lanes[0], p.lanes[1], p.lanes[2], p.lanes[3] = sipInit(p.keys[0], 0xee)
		if cpufeat.AVX512F {
			p.kernel = sipKernel
		}
		if spec.Layout == LayoutV3 {
			p.firstBoth = true
			p.starts, p.stepMin, p.stepM = true, 1, max(spec.M-1, 1)
			p.stepRecip = math.MaxUint64 / p.stepM
			break
		}
		p.firstN, p.restN = int((128-p.routeBits)/p.bitsPer), int(128/p.bitsPer)
		p.firstBoth = p.routeBits+uint(min(spec.K, p.firstN))*p.bitsPer > 64
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

// RouteBatch routes every item: shards[i] and digests[i] are what Route
// returns for items[i]. It hashes eight items per call of an assembly kernel
// with the same bytes out where the CPU has one for the layout: keyed v2 and
// v3 run SipHash-2-4-128 on AVX-512F, unkeyed v2 Murmur-128 on AVX-512F and
// AVX-512DQ. Layout 1, other CPUs, and the last len(items) mod 8 items go
// item by item. shards and digests must be at least as long as items, and
// the placement must have at most 65 536 shards (service.MaxShards), so
// every shard number fits.
func (p *Placement) RouteBatch(shards []uint16, digests []PlacementDigest, items [][]byte) {
	p.routeBatch(shards, digests, items, true)
}

// routeBatch is RouteBatch with the kernel's use in the caller's hands, so a
// test can hold both paths to Route on one machine.
func (p *Placement) routeBatch(shards []uint16, digests []PlacementDigest, items [][]byte, kernel bool) {
	shards, digests = shards[:len(items)], digests[:len(items)]
	shift := uint64(64 - p.routeBits)
	i := 0
	var words [8]uint64 // per short lane: its sipLastBlock or murmurTail k1
	for ; kernel && p.kernel != noKernel && i+8 <= len(items); i += 8 {
		lane := items[i : i+8]
		s, d := (*[8]uint16)(shards[i:]), (*[8]PlacementDigest)(digests[i:])
		if p.kernel == murmurKernel {
			for j, it := range lane {
				if len(it) < 8 {
					words[j], _ = murmurTail(it)
				}
			}
			murmur128x8(p.spec.Seed, lane, &words, shift, s, d)
			continue
		}
		for j, it := range lane {
			if len(it) < 8 {
				words[j] = sipLastBlock(it)
			}
		}
		sip128x8(&p.lanes, lane, &words, shift, s, d)
		if !p.firstBoth {
			for j := range d {
				d[j].w1 = 0
			}
		}
	}
	for ; i < len(items); i++ {
		si, d := p.Route(items[i])
		shards[i], digests[i] = uint16(si), d
	}
}

// Indexes appends the k indexes of item, which Route sent to shard with
// digest d.
func (p *Placement) Indexes(dst []uint64, item []byte, shard int, d PlacementDigest) []uint64 {
	if g, step, ok := p.Start(d); ok {
		return Progression(dst, g, step, p.spec.M, p.spec.K)
	}
	if p.spec.Layout == LayoutV1 {
		if !p.spec.Keyed {
			// Layout 1 routes by its own hash; its indexes are the same
			// progression as unkeyed v2's, from a Murmur-128 of the item.
			h1, h2 := Murmur128(item, p.spec.Seed)
			return Progression(dst, p.mod(h1), p.mod(h2), p.spec.M, p.spec.K)
		}
		// Recycling over the 64-bit SipHash digests salt 0, 1, …: each
		// yields ⌊64/b⌋ whole indexes, most significant bits first.
		key := p.keys[shard]
		for left, salt := p.spec.K, uint64(0); left > 0; salt++ {
			n := min(left, p.restN)
			left -= n
			dst = p.cut(dst, SipHash24(SipKey{key.K0, key.K1 ^ salt}, item), 0, 0, n)
		}
		return dst
	}
	// Keyed v2's bit stream: digest 0 minus its routing bits, then digests
	// 1, 2, … in full, each giving whole indexes only. A digest read no
	// further than its first word is computed no further.
	n := min(p.spec.K, p.firstN)
	dst = p.cut(dst, d.w0, d.w1, p.routeBits, n)
	key := p.keys[0]
	for left, salt := p.spec.K-n, uint64(1); left > 0; salt++ {
		n = min(left, p.restN)
		left -= n
		w0, w1 := sipHash128(SipKey{key.K0, key.K1 ^ salt}, item, uint(n)*p.bitsPer > 64)
		dst = p.cut(dst, w0, w1, 0, n)
	}
	return dst
}

// Start returns where the indexes of an item Route gave digest d begin and
// how they advance: they are Progression(dst, g, step, m, k), with g < m
// and step ≤ m. ok is true for unkeyed layout 2 and for layout 3, whose
// indexes follow from the digest alone; under layout 1 and keyed layout 2,
// whose indexes only Indexes derives, it is false and g and step mean
// nothing. It is branch-free and small enough to inline.
func (p *Placement) Start(d PlacementDigest) (g, step uint64, ok bool) {
	return modRecip(d.w0, p.spec.M, p.recip), p.stepMin + modRecip(d.w1, p.stepM, p.stepRecip), p.starts
}

// Progression appends the k indexes g, g + step, … mod m, given g < m and
// step ≤ m. It sums in reduced space, as double hashing needs (raw uint64
// sums would wrap modulo 2⁶⁴), and takes g + step as g − (m − step) once it
// would reach m, so no sum wraps even above m = 2⁶³. bitset repeats this
// advance rule four times: on its probe path in testProgressions and the
// probe8_amd64.s kernel (held to this function by TestProgressionsEdges),
// and on its set path in setProgressionGo and the setprog_amd64.s kernel
// (TestSetProgressionEdges): a change here changes all five.
func Progression(dst []uint64, g, step, m uint64, k int) []uint64 {
	back := m - step
	for i := 0; i < k; i++ {
		dst = append(dst, g)
		next := g + step
		if g >= back {
			next = g - back
		}
		g = next
	}
	return dst
}

// Place is Route then Indexes: one item's whole placement.
func (p *Placement) Place(dst []uint64, item []byte) (int, []uint64) {
	shard, d := p.Route(item)
	return shard, p.Indexes(dst, item, shard, d)
}

// mod returns h mod m.
func (p *Placement) mod(h uint64) uint64 { return modRecip(h, p.spec.M, p.recip) }

// modRecip returns h mod d without dividing, given recip = ⌊(2⁶⁴−1)/d⌋: the
// quotient estimate is exact or one short (recip ≥ 2⁶⁴/d − 1 and h < 2⁶⁴),
// so the remainder estimate lies in [0, 2d) and one compare-and-subtract
// finishes it.
func modRecip(h, d, recip uint64) uint64 {
	q, _ := bits.Mul64(h, recip)
	r := h - q*d
	if r >= d {
		r -= d
	}
	return r
}

// cut appends n bitsPer-bit groups of the 128-bit register w0:w1, the first
// starting at bit at and each next one bitsPer further on, counted from the
// most significant end, each reduced into [0, m) as Recycling.slice reduces
// them. Every group is cut at its own offset o, none waiting on another: one
// loop takes the groups that start in w0 (the 64 bits from o are w0's from o
// and w1's before 64 − o), one those that start in w1. Every shift count is
// masked below 64, which spares it the range check and changes nothing:
// o < 64 in the first loop, 64 ≤ o < 128 in the second.
func (p *Placement) cut(dst []uint64, w0, w1 uint64, at uint, n int) []uint64 {
	b, m := p.bitsPer, p.spec.M
	down := (64 - b) & 63
	o := at
	for ; n > 0 && o < 64; n, o = n-1, o+b {
		// w1 >> 1 >> (63 − o) is w1 >> (64 − o), 0 at o = 0.
		v := (w0<<(o&63) | w1>>1>>((63-o)&63)) >> down
		if v >= m {
			v -= m
		}
		dst = append(dst, v)
	}
	for ; n > 0; n, o = n-1, o+b {
		v := w1 << ((o - 64) & 63) >> down
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
