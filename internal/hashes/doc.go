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
// with 128-bit output read as a §8.2 bit stream under one key: "as few
// base-hash calls per item as the bits allow", shard number included. A layout
// is a storage format; placement_oracle_test.go freezes layout 1.
package hashes
