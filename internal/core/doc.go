// Package core implements the Bloom-filter variants studied in the paper —
// classic, blocked, counting, scalable, partitioned (pyBloom layout) and
// Dablooms (Bitly's scaling counting filter) — together with the parameter
// mathematics of §3 (average case), §4 (adversarial case, eq 7) and §8.1
// (worst-case parameters, eq 9–12).
//
// The filter types:
//
//   - Bloom: the classic m-bit vector with k indexes from a
//     hashes.IndexFamily (§3). Construct directly over a family or with
//     NewBloomOptimal for the (m, k) the equations pick.
//   - Counting: 4-bit counters instead of bits, supporting Remove — and the
//     §6.2 overflow attack, governed by an explicit OverflowPolicy.
//   - Partitioned: pyBloom's layout, index i scoped to slice i.
//   - Scalable / Dablooms: capacity-doubling stacks of filters whose
//     compound false-positive rate Fig 8 studies under pollution.
//   - Blocked: all k probes inside the 512-bit block the first index
//     selects — one cache miss per operation.
//
// Every variant exposes its internal state (Weight, Occupied, Bits) because
// the paper's threat model hands that state to the adversary; package attack
// builds its Views on exactly these accessors.
//
// Concurrency: filters are not safe for concurrent use. Synced wraps any
// Filter in one global mutex — the baseline primitive; the service package
// builds the sharded, striped-lock store that replaces it for serving.
package core
