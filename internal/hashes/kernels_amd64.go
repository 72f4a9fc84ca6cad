package hashes

// sip128x8 is sipHash128 over items[0..7] at once under the key whose
// initial state (v0, v1, v2, v3, the 128-bit tweak folded in) init holds:
// one item per 64-bit lane of the AVX-512F registers, every lane's whole
// words gathered from its own slice, a lane whose item has no word left
// masked off while the longer ones finish. A lane of eight bytes or more
// loads its last block itself, by sipLastBlock's rule; for a shorter item i,
// last[i] is sipLastBlock(items[i]), and last[i] is not read otherwise. It
// writes item i's two output words to digests[i] and w0 >> shift to
// shards[i]. The caller checks cpufeat.AVX512F first.
//
//go:noescape
func sip128x8(init *[4]uint64, items [][]byte, last *[8]uint64, shift uint64, shards *[8]uint16, digests *[8]PlacementDigest)

// murmur128x8 is Murmur128 over items[0..7] at once under seed, laid out as
// sip128x8 is: one item per lane, every lane's 16-byte blocks gathered from
// its own slice, a lane with no block left masked off. A lane of eight bytes
// or more loads its tail words itself, by murmurTail's rule; for a shorter
// item i, short[i] is murmurTail(items[i])'s k1 (its k2 is 0), and short[i]
// is not read otherwise. It writes item i's (h1, h2) to digests[i] and
// h1 >> shift to shards[i]. The caller checks cpufeat.AVX512DQ
// first (VPMULLQ); it is never true without AVX512F.
//
//go:noescape
func murmur128x8(seed uint64, items [][]byte, short *[8]uint64, shift uint64, shards *[8]uint16, digests *[8]PlacementDigest)
