// Package service is the filter store behind `evilbloom serve`: a registry
// of named, independently configured filter instances (Registry), each a
// sharded striped-lock store (Sharded) over a pluggable per-shard backend
// (Backend), durable across restarts when given a data directory
// (Persister), and able to summarize itself as a cache digest for package
// mesh to exchange. It knows nothing of HTTP, RESP, peers or budgets: the
// command engine (internal/engine) validates, charges and dispatches, and
// learns of each filter's arrival and departure through the registry's one
// lifecycle hook.
//
// # Store architecture
//
// A store splits one logical filter into N power-of-two shards, each an
// independent backend with its own write lock, so adds and removals on
// different shards never contend; membership tests take no lock at all,
// on every variant and counter width, because writers publish every word
// with atomic stores and no counter straddles two words. Where an item goes —
// its shard and its k indexes inside it — is decided by the store's one
// hashes.Placement under a versioned layout recorded in meta.json and in the
// snapshot and digest envelopes. New filters get layout 2, one hash per key:
// a naive filter takes the shard from the same public Murmur-128 digest it
// indexes with (so the attackable mode now also lets the adversary pick the
// shard — one shard saturates with 1/N of the insertions), a hardened filter
// reads shard and indexes off one keyed SipHash bit stream. Filters recovered
// from older data directories or envelopes keep layout 1 (a routing SipHash
// under its own key, then the index hash) for as long as they live.
//
// The shards are variant-generic: the Backend interface carries the
// index-level operations (AddIndexes/TestIndexes/Count/Weight/M/K) and the
// state encoding snapshots are made of (AppendBinary/Load/Reset), and the
// optional Remover capability interface marks a backend that can also
// delete. Three variants ship today:
//
//   - VariantBloom: the classic §3 bit vector. No deletion; requests for it
//     are answered with a capability error.
//   - VariantCounting: the §4.3/§6 counting filter — small counters per
//     position, deletion supported. Its overflow policy defaults to
//     saturate, under which an item added any number of times stays
//     present; wrap, the dablooms behaviour the §6.2 attack exploits, is
//     opt-in and erases an item added 2^width times.
//   - VariantBlocked: a bit vector whose k probes share one 512-bit block,
//     one cache miss per operation. No deletion.
//
// Placement runs outside the shard locks — a batch routes every key once,
// keeps the digest, and derives indexes a window of keys at a time into
// scratch pooled per store — and every backend reports occupancy deltas so
// statistics are O(shards) instead of O(m) — no shard ever holds its lock
// for a scan.
//
// Two index-derivation modes mirror §8 of the paper:
//
//   - ModeNaive: unkeyed MurmurHash3 double hashing with a public seed, the
//     dablooms configuration of §6. A chosen-insertion adversary who clones
//     the family can pollute the filter through the public add endpoint,
//     and against a naive counting filter the §4.3 deletion adversary can
//     evict targeted honest items — package attack's RemoteView and
//     RemoteDeletion do exactly that.
//   - ModeHardened: keyed SipHash-2-4 with digest recycling (§8.2) under a
//     server secret — two PRF calls for route and seven indexes at the
//     default geometry. The same campaigns degrade into random insertions
//     and refused removals.
//
// # Filter lifecycle
//
// Filters are created under a name (PUT /v2/filters/{name}), are immutable
// once created, and are deleted by name; to change a filter's
// configuration, delete and re-create it. The registry entry named
// "default" backs the unversioned-era /v1/* shim, byte-identical to the
// original single-filter wire format.
//
// # Durability model
//
// With `evilbloom serve -data-dir`, every filter owns a directory holding
// its full configuration (meta.json, secrets included — the data dir is the
// server's trusted storage), versioned + checksummed snapshot envelopes
// written via temp-file + rename, and an append-only operation log with
// length-prefixed, per-record-CRC framing. Mutations that change the filter
// (a bloom or blocked add of an item already present is not one) are
// journaled from inside the shard critical section into a buffered, batched
// writer whose durability is the -fsync policy: always (fsync per
// mutation), interval (flush+fsync every ~100ms, the default) or never (the
// OS decides).
// Restart restores the newest restorable snapshot — a corrupt one falls
// back a generation — and replays the log chain on top, truncating a torn
// tail to the longest valid record prefix, so a recovered filter is
// bit-identical to the pre-crash state up to the configured loss window.
// POST .../compact forces a snapshot and starts a fresh log segment;
// SIGTERM/SIGINT drain in-flight requests and flush before exit. Restored
// filters pass through the same MaxTotalBits accounting as fresh creations,
// with failed restores rolling their reservation back.
//
// Why it matters for the paper: the §4/§6 campaigns are only an
// operational threat because filter state is long-lived. A polluted or
// deletion-damaged filter that survives restart bit-identically (see the
// restart-preserves-attack test) is the adversarial-environment setting of
// Naor–Yogev made concrete — bouncing the process does not heal the filter.
package service
