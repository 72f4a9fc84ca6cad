// Package hashes implements every hash primitive the paper touches and the
// index-derivation strategies that turn digests into the k Bloom-filter
// indexes I_x = {h_1(x) mod m, …, h_k(x) mod m}.
//
// Non-cryptographic functions (§2 of the paper): MurmurHash3 (32-bit x86 and
// 128-bit x64 variants, as used by Bitly's dablooms), Jenkins one-at-a-time,
// FNV-1a (via the standard library) and SipHash-2-4 (keyed).
//
// Cryptographic functions: MD5, SHA-1, SHA-256/384/512 and HMAC built from
// the standard library. The package also provides digest truncation — the
// "security sin" the paper exploits — and MurmurHash3-128 inversion, which
// makes pre-image forgery constant time exactly as §6.2 claims.
//
// Index derivation strategies (§3, §5.2, §6.1, §7, §8.2):
//
//   - Salted: k independent calls h(salt_i ‖ x), the pyBloom layout.
//   - DoubleHashing: Kirsch–Mitzenmacher g_i = h1 + i·h2, the dablooms trick.
//   - Recycling: one long digest sliced into k·⌈log₂m⌉ bits (§8.2, Table 2).
//   - MD5Split: one 128-bit MD5 split into four 32-bit indexes (Squid, §7).
//
// Recycling's price is the digest calls and nothing else: a 64-bit digest is
// cut into indexes in a register and reduced with one compare-and-subtract,
// longer ones through 64-bit windows of their bytes, so `evilbloom table2`
// reads SipHash-2-4 at ≈ 2× (5 calls against 10 for k = 10), the ratio the
// paper's Table 2 is about. The bit layout it cuts by is a storage format;
// see Recycling.
//
// Any strategy can be keyed (HMAC or SipHash) to obtain the countermeasure
// of §8.2: an adversary who cannot predict indexes cannot forge items.
//
// Placement is the serving system's one seam on top of these: it turns an
// item into (shard, k indexes) under a named, versioned Layout, for the
// sharded store and for a peer evaluating an exported digest alike. Layout 1
// is a routing SipHash plus DoubleHashing or per-shard Recycling; layout 2
// draws route and indexes from one hash — one Murmur-128 call, or SipHash-2-4
// with 128-bit output read as a §8.2 bit stream under one key; layout 3,
// keyed only, draws them from one SipHash-2-4-128 digest by double hashing,
// whatever k and m. A layout is a storage format; layout1_oracle_test.go
// freezes layout 1. RouteBatch routes a batch eight items per call of an
// amd64 assembly kernel where the CPU has it, with the same output words:
// SipHash-2-4-128 under keyed layouts 2 and 3 (sip128x8_amd64.s,
// AVX-512F), Murmur3-x64-128 under unkeyed layout 2 (murmur128x8_amd64.s,
// AVX-512F and AVX-512DQ); everything else routes item by item. Which
// kernels the CPU runs is internal/cpufeat's one reading of CPUID. Under
// unkeyed layout 2 and layout 3 an item's indexes are a progression of its
// routing digest, and Start returns its first index and step, so a caller
// can test them without materialising them (bitset.TestProgressions, eight
// keys a call).
package hashes
