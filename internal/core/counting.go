package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"

	"evilbloom/internal/bitset"
	"evilbloom/internal/hashes"
)

// OverflowPolicy selects what a counting filter does when a counter hits its
// maximum. Dablooms-style wrapping is what the §6.2 overflow attack exploits;
// saturating counters neutralize it at the cost of losing deletability for
// hot counters.
type OverflowPolicy int

const (
	// Wrap lets the counter roll over to zero, silently erasing membership
	// evidence — faithful to 4-bit counter implementations like dablooms.
	Wrap OverflowPolicy = iota + 1
	// Saturate pins the counter at its maximum; such counters are never
	// decremented again.
	Saturate
)

func (p OverflowPolicy) String() string {
	switch p {
	case Wrap:
		return "wrap"
	case Saturate:
		return "saturate"
	default:
		return fmt.Sprintf("OverflowPolicy(%d)", int(p))
	}
}

// ParseOverflowPolicy resolves "wrap" or "saturate"; the empty string parses
// to the zero policy so callers can treat it as "use the default".
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "":
		return 0, nil
	case "wrap":
		return Wrap, nil
	case "saturate":
		return Saturate, nil
	default:
		return 0, fmt.Errorf("core: unknown overflow policy %q (want wrap or saturate)", s)
	}
}

// Counting is the counting Bloom filter of §4.3/§6.1: an array of small
// counters instead of bits, supporting deletion at the price of false
// negatives when counters are wrapped or wrongly decremented.
type Counting struct {
	counters packedCounters
	fam      hashes.IndexFamily
	policy   OverflowPolicy
	n        uint64
	overflow uint64 // counter-overflow events observed
	scratch  []uint64
}

var _ Filter = (*Counting)(nil)

// NewCounting builds a counting filter with width-bit counters (dablooms
// uses 4) over the family's geometry.
func NewCounting(fam hashes.IndexFamily, width int, policy OverflowPolicy) (*Counting, error) {
	pc, err := newPackedCounters(fam.M(), width)
	if err != nil {
		return nil, err
	}
	if policy != Wrap && policy != Saturate {
		return nil, fmt.Errorf("core: invalid overflow policy %d", int(policy))
	}
	return &Counting{
		counters: pc,
		fam:      fam,
		policy:   policy,
		scratch:  make([]uint64, 0, fam.K()),
	}, nil
}

// Add implements Filter.
func (c *Counting) Add(item []byte) {
	c.scratch = c.fam.Indexes(c.scratch[:0], item)
	c.AddIndexesAtomic(c.scratch)
}

// AddIndexesAtomic increments the counters at idx; it returns how many
// counters were previously zero and how many overflowed during this
// insertion. Writers are serialized by the caller; each counter is published
// with one atomic store, so TestIndexesAtomic readers may run with no lock at
// all. The insertion and overflow counts are not read on the lock-free path.
func (c *Counting) AddIndexesAtomic(idx []uint64) (fresh, overflowed int) {
	for _, i := range idx {
		v := c.counters.get(i)
		if v == 0 {
			fresh++
		}
		if v == c.counters.max() {
			overflowed++
			c.overflow++
			if c.policy == Saturate {
				continue
			}
			c.counters.setAtomic(i, 0) // wrap: roll over, erasing evidence
			continue
		}
		c.counters.setAtomic(i, v+1)
	}
	c.n++
	return fresh, overflowed
}

// Remove decrements the counters of item. It returns an error (leaving any
// already-decremented counters modified, as real implementations do) if some
// counter is already zero — the footprint of a false-negative-inducing
// deletion. Saturated counters under the Saturate policy are left pinned.
func (c *Counting) Remove(item []byte) error {
	c.scratch = c.fam.Indexes(c.scratch[:0], item)
	_, err := c.RemoveIndexesAtomic(c.scratch)
	return err
}

// CanRemoveIndexes reports whether RemoveIndexesAtomic(idx) would complete
// without hitting a zero counter: every position's counter covers its
// multiplicity in idx (an index set may repeat a position, and each
// occurrence decrements once). Pinned counters under the Saturate policy
// always pass — they are never decremented. A caller that guards removals
// with this check (under the same lock) can never be driven into the
// partial-removal footprint.
func (c *Counting) CanRemoveIndexes(idx []uint64) bool {
	for i, p := range idx {
		v := c.counters.get(p)
		if v == c.counters.max() && c.policy == Saturate {
			continue
		}
		mult := uint64(1)
		for _, q := range idx[:i] {
			if q == p {
				mult++
			}
		}
		if mult > v {
			return false
		}
	}
	return true
}

// RemoveIndexesAtomic decrements a pre-computed index set, publishing each
// counter with an atomic store (see AddIndexesAtomic for the locking
// contract). It returns how many counters this removal drove to zero — the
// mirror of AddIndexesAtomic's fresh count, which lets a wrapper track the
// non-zero weight incrementally. The zeroed count stays valid on error:
// counters decremented before the failing position remain decremented,
// exactly like the partial-removal footprint real implementations leave
// behind.
func (c *Counting) RemoveIndexesAtomic(idx []uint64) (zeroed int, err error) {
	if c.n > 0 {
		c.n--
	}
	for pos, i := range idx {
		v := c.counters.get(i)
		switch {
		case v == 0:
			return zeroed, fmt.Errorf("core: removing item whose counter %d (position %d) is already zero", i, pos)
		case v == c.counters.max() && c.policy == Saturate:
			// Pinned: cannot safely decrement.
		default:
			c.counters.setAtomic(i, v-1)
			if v == 1 {
				zeroed++
			}
		}
	}
	return zeroed, nil
}

// Test implements Filter.
func (c *Counting) Test(item []byte) bool {
	c.scratch = c.fam.Indexes(c.scratch[:0], item)
	return c.TestIndexesAtomic(c.scratch)
}

// TestIndexesAtomic reports whether every counter at idx is non-zero, with
// one atomic load per counter — callable with no lock held while a
// serialized writer mutates through the atomic paths. No counter straddles a
// word, so this holds at every width.
func (c *Counting) TestIndexesAtomic(idx []uint64) bool {
	for _, i := range idx {
		if c.counters.get(i) == 0 {
			return false
		}
	}
	return true
}

// Count implements Filter.
func (c *Counting) Count() uint64 { return c.n }

// M returns the number of counters.
func (c *Counting) M() uint64 { return c.fam.M() }

// K returns the number of hash functions.
func (c *Counting) K() int { return c.fam.K() }

// Counter returns the value of counter i (for attack drivers and tests).
func (c *Counting) Counter(i uint64) uint64 { return c.counters.get(i) }

// Occupied reports whether counter i is non-zero — the adversary's
// per-position view of a known filter (§4).
func (c *Counting) Occupied(i uint64) bool { return c.counters.get(i) != 0 }

// CounterMax returns the maximum representable counter value (2^width − 1).
func (c *Counting) CounterMax() uint64 { return c.counters.max() }

// OccupancyBits projects the counters down to a plain bit vector: position i
// is set iff counter i is non-zero. This is the shape a Squid-style cache
// digest of a counting filter travels in — membership answers are identical
// to the source filter's, at one bit per position instead of the counter
// width. Callers export digests under a lock, so a zero storage word skips
// all of its counters at once: a sparse filter is scanned in about
// m/⌊64/width⌋ word reads, not m counter extractions.
func (c *Counting) OccupancyBits() *bitset.BitSet {
	p := &c.counters
	occ := bitset.New(p.m)
	for wi, word := range p.words {
		for i := uint64(wi) * p.per; word != 0 && i < p.m; i++ {
			if word&p.max() != 0 {
				occ.Set(i)
			}
			word >>= uint(p.width)
		}
	}
	return occ
}

// Weight returns the number of non-zero counters.
func (c *Counting) Weight() uint64 {
	var w uint64
	for i := uint64(0); i < c.M(); i++ {
		if c.counters.get(i) != 0 {
			w++
		}
	}
	return w
}

// Fill returns Weight/m.
func (c *Counting) Fill() float64 {
	if c.M() == 0 {
		return 0
	}
	return float64(c.Weight()) / float64(c.M())
}

// Overflows returns the number of overflow events observed since creation —
// the §6.2 attack's signature.
func (c *Counting) Overflows() uint64 { return c.overflow }

// EstimatedFPR returns (W/m)^k from the current non-zero pattern.
func (c *Counting) EstimatedFPR() float64 {
	return FPForgeryProbability(c.M(), c.K(), c.Weight())
}

// Family returns the index family.
func (c *Counting) Family() hashes.IndexFamily { return c.fam }

// Policy returns the overflow policy.
func (c *Counting) Policy() OverflowPolicy { return c.policy }

// countingSnapshotHeader is the fixed prefix of a Counting snapshot: width,
// policy, m, n and the overflow count, followed by the counters in the
// contiguous packing (see packedCounters.appendStream).
const countingSnapshotHeader = 1 + 1 + 8 + 8 + 8

// AppendBinary appends the counter state (width, policy, insertion and
// overflow counts, packed counters) to dst. The index family is NOT
// serialized — like a cache digest, a snapshot is only meaningful to a party
// that already knows the filter's public geometry (and, for keyed families,
// its secret).
func (c *Counting) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(c.counters.width), byte(c.policy))
	dst = binary.LittleEndian.AppendUint64(dst, c.counters.m)
	dst = binary.LittleEndian.AppendUint64(dst, c.n)
	dst = binary.LittleEndian.AppendUint64(dst, c.overflow)
	return c.counters.appendStream(dst)
}

// Load overwrites the counter state in place from r, which must hold what
// AppendBinary writes for a filter of the same m and counter width, reading
// through buf (≥ countingSnapshotHeader bytes); the overflow policy comes
// from the snapshot. Like bitset.Load it stores plainly, before publication.
// On error the filter is half-written.
func (c *Counting) Load(r io.Reader, buf []byte) error {
	hdr := buf[:countingSnapshotHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	width, policy := int(hdr[0]), OverflowPolicy(hdr[1])
	if m := binary.LittleEndian.Uint64(hdr[2:]); width != c.counters.width || m != c.counters.m {
		return fmt.Errorf("core: snapshot geometry (m=%d, width=%d) does not match filter (m=%d, width=%d)",
			m, width, c.counters.m, c.counters.width)
	}
	if policy != Wrap && policy != Saturate {
		return fmt.Errorf("core: snapshot carries invalid overflow policy %d", int(policy))
	}
	n, overflow := binary.LittleEndian.Uint64(hdr[10:]), binary.LittleEndian.Uint64(hdr[18:])
	if err := c.counters.load(r, buf); err != nil {
		return err
	}
	c.policy, c.n, c.overflow = policy, n, overflow
	return nil
}

// Reset zeroes every counter and both counts.
func (c *Counting) Reset() {
	for i := range c.counters.words {
		atomic.StoreUint64(&c.counters.words[i], 0)
	}
	c.n, c.overflow = 0, 0
}

// packedCounters stores m counters of width bits each, ⌊64/width⌋ to a word
// and none straddling two: every counter access is one load or one store of
// one word, which is what lets lock-free readers use a single atomic load at
// every width. The top 64 mod width bits of each word stay zero; that slack
// is the layout's memory overhead (docs/ARCHITECTURE.md has the table).
type packedCounters struct {
	width int
	per   uint64 // counters per word, ⌊64/width⌋
	recip uint64 // ⌈2^64/per⌉: locate divides by per as a multiply
	m     uint64
	words []uint64
}

func newPackedCounters(m uint64, width int) (packedCounters, error) {
	if width < 1 || width > 16 {
		return packedCounters{}, fmt.Errorf("core: counter width %d outside [1,16]", width)
	}
	if m == 0 {
		return packedCounters{}, fmt.Errorf("core: zero-size counter array")
	}
	per := uint64(64 / width)
	return packedCounters{
		width: width,
		per:   per,
		recip: ^uint64(0)/per + 1,
		m:     m,
		words: make([]uint64, (m+per-1)/per),
	}, nil
}

func (p *packedCounters) max() uint64 { return 1<<uint(p.width) - 1 }

// locate returns the word holding counter i and the counter's bit offset in
// it. The word is ⌊i/per⌋, computed without a divide as the high half of
// i·⌈2^64/per⌉: the reciprocal exceeds 2^64/per by less than one, which
// cannot carry the quotient past the next integer while i·per < 2^64 — for
// every i below 2^58, far beyond any filter size.
func (p *packedCounters) locate(i uint64) (word uint64, shift uint) {
	word, _ = bits.Mul64(i, p.recip)
	return word, uint(i-word*p.per) * uint(p.width)
}

// get returns counter i with one atomic load, callable with no lock held.
func (p *packedCounters) get(i uint64) uint64 {
	if i >= p.m {
		return 0
	}
	w, s := p.locate(i)
	return atomic.LoadUint64(&p.words[w]) >> s & p.max()
}

// setAtomic stores v into counter i. The read-modify-write stays a plain
// read (writers are serialized by the caller); only the store, which races
// lock-free loads, is atomic.
func (p *packedCounters) setAtomic(i uint64, v uint64) {
	if i >= p.m {
		return
	}
	w, s := p.locate(i)
	atomic.StoreUint64(&p.words[w], p.words[w]&^(p.max()<<s)|(v&p.max())<<s)
}

// Snapshots carry the counters in a stream packed contiguously: counter i at
// stream bits [i·width, (i+1)·width) of little-endian 64-bit words, where a
// counter may straddle two stream words. When the width divides 64 every
// in-memory word is full, the two packings are the same words, and they are
// copied as they are.

// contiguous reports whether the in-memory words already are the stream.
func (p *packedCounters) contiguous() bool { return p.per*uint64(p.width) == 64 }

// streamWords is the length of the stream in 64-bit words.
func (p *packedCounters) streamWords() int { return int((p.m*uint64(p.width) + 63) / 64) }

// appendStream appends the stream encoding of the counters to out. Callers
// hold the writers' lock, so the counters do not change underneath it.
func (p *packedCounters) appendStream(out []byte) []byte {
	if p.contiguous() {
		for _, word := range p.words {
			out = binary.LittleEndian.AppendUint64(out, word)
		}
		return out
	}
	w := uint(p.width)
	var acc uint64 // the stream word being filled, its low have bits
	have := uint(0)
	for i := uint64(0); i < p.m; i++ {
		v := p.get(i)
		acc |= v << have
		if have += w; have >= 64 {
			out = binary.LittleEndian.AppendUint64(out, acc)
			have -= 64
			acc = v >> (w - have) // the straddling counter's high bits
		}
	}
	if have > 0 {
		out = binary.LittleEndian.AppendUint64(out, acc)
	}
	return out
}

// load overwrites every counter from the stream in r, read through buf,
// with plain stores: like bitset.Load it runs only before publication.
// Stream bits past the m-th counter must be zero.
//
//lint:allow atomicpublish loads run before publication: every caller restores a store no lock-free reader can reach yet
func (p *packedCounters) load(r io.Reader, buf []byte) error {
	var slack uint64 // stream bits past the last counter
	if p.contiguous() {
		if err := bitset.ReadWords(r, buf, p.words); err != nil {
			return err
		}
		if rem := p.m % p.per; rem != 0 {
			slack = p.words[len(p.words)-1] >> (rem * uint64(p.width))
		}
	} else {
		// The stream is shorter than the words, so it is read into their
		// front and spread out from the back: word j is built from stream
		// words up to j only, none of which the loop has overwritten yet.
		n := p.streamWords()
		if err := bitset.ReadWords(r, buf, p.words[:n]); err != nil {
			return err
		}
		if rem := p.m * uint64(p.width) % 64; rem != 0 {
			slack = p.words[n-1] >> rem
		}
		w := uint64(p.width)
		for j := len(p.words) - 1; j >= 0; j-- {
			var word uint64
			for i, first := uint64(j)*p.per, uint64(j)*p.per; i < min(first+p.per, p.m); i++ {
				at := i * w // the counter's first stream bit
				v := p.words[at/64] >> (at % 64)
				if at%64+w > 64 {
					v |= p.words[at/64+1] << (64 - at%64)
				}
				word |= v & p.max() << ((i - first) * w)
			}
			p.words[j] = word
		}
	}
	if slack != 0 {
		return fmt.Errorf("core: counter stream has bits set past its %d counters", p.m)
	}
	return nil
}
