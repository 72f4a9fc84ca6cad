// Package service turns the paper's offline filter experiments into an
// online, serving system: a registry of named, independently configured
// filter instances (Registry), each a sharded striped-lock store (Sharded)
// over a pluggable per-shard backend (Backend), behind a versioned HTTP/JSON
// API (Server), started by `evilbloom serve` — durable across restarts when
// given a data directory (Persister), and exchanging Squid-style cache
// digests with sibling servers when given peer URLs (Peers).
//
// # Store architecture
//
// A store splits one logical filter into N power-of-two shards, each an
// independent backend with its own read-write lock, so adds, membership
// tests and removals on different shards never contend. Where an item goes —
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
// index-level operations (AddIndexes/TestIndexes/Count/Weight/M/K), and the
// optional Remover and Snapshotter capability interfaces mark what a
// particular backend can additionally do. Two variants ship today:
//
//   - VariantBloom: the classic §3 bit vector. No deletion; requests for it
//     are answered with a capability error.
//   - VariantCounting: the §4.3/§6 counting filter — small counters per
//     position, deletion supported, overflow policy selectable (wrap, the
//     dablooms behaviour the §6.2 attack exploits, or saturate, the
//     countermeasure).
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
// length-prefixed, per-record-CRC framing. Mutations are journaled from
// inside the shard critical section into a buffered, batched writer whose
// durability is the -fsync policy: always (fsync per mutation), interval
// (flush+fsync every ~100ms, the default) or never (the OS decides).
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
//
// # Peer digest exchange
//
// With `evilbloom serve -peer <url>` (repeatable) the node joins a §7-style
// mesh: every local filter runs one refresh loop that fetches each peer's
// same-named filter's cache digest (GET /v2/filters/{name}/digest) on a
// jittered interval. Digests travel in package cachedigest's versioned,
// checksummed envelope — the occupancy pattern plus the public placement
// rule (layout, seed, geometry and, under layout 1, the shard-routing key),
// so the receiver evaluates membership locally through the same
// hashes.Placement; a counting filter's digest is its non-zero mask, one
// bit per position. The digest endpoint's ETag is the store's Generation (a
// per-shard mutation counter summed in O(shards)), so an unchanged filter
// answers a conditional fetch with 304 and no serialization at all.
// Hardened filters export no digest: their keyed family never travels, and
// the endpoint answers 409.
//
// POST /v2/filters/{name}/route answers the routing question the exchange
// exists for — "local", "peer" (naming the first sibling whose digest
// claims the item) or "origin" — with every peer's individual claim, age
// and staleness attached. GET .../peers reports per-peer accounting
// (generation, age, staleness, fetch/304/failure counters, last error);
// POST .../peers/refresh forces a synchronous fetch, the deterministic
// stand-in for the interval that tests and smoke scripts use. Digests can
// also be pushed (POST .../digest?peer=<label>) for topologies where only
// one side can dial; corrupt envelopes answer 400, envelopes naming a
// family no peer can evaluate answer 409, and — push being unauthenticated
// — retention is budgeted like filter creation (MaxPushedPeers labels,
// MaxPushedDigestBits total, reserved from the header before the payload
// is buffered; 409 when exhausted).
//
// A filter's refresh loop starts when the filter is published and is
// stopped — synchronously, no goroutine outlives its filter — by
// Registry.Delete and Registry.Close.
//
// # Rate limiting and pollution accounting
//
// Every registry carries a Limiter charging each mutation — add,
// add-batch, remove, remove-batch, digest push — against a token bucket
// keyed by (filter, client identity); batch operations charge per item,
// because adversarial damage scales with insertions, not requests. With a
// budget configured (Registry.ConfigureRateLimit, `evilbloom serve
// -rate-mutations`/`-rate-burst`), exhaustion answers 429 with a
// Retry-After naming the exact refill time and applies nothing; the /v1
// shim spends from the default filter's buckets, so the legacy surface is
// no side door. Client identity is the transport peer address unless
// -trust-proxy makes the X-Evilbloom-Client and X-Forwarded-For headers
// count. Reads are never charged.
//
// Accounting runs even unthrottled: GET /v2/filters/{name}/clients is the
// O(clients) attribution table (worst offenders first) and the stats
// document carries the aggregate, so "who polluted this filter" has an
// answer on every server. The table is bounded per filter
// (-rate-clients-max, default DefaultRateClientsMax) with LRU eviction
// folding evicted identities' counts into preserved aggregates — identity
// churn cannot memory-exhaust the server through its own defense.
//
// Why it matters for the paper: §8 names restricting who may update the
// filter as the operational mitigation below keyed hashing, and Naor–Yogev
// formalize adversarial power as a query/insertion budget. Rate limiting
// implements exactly that budget: attack.RemoteThrottledPollution runs the
// same chosen-insertion campaign against an unthrottled server (saturation)
// and a rate-limited one (damage capped at the burst, attacker named),
// completing the naive → rate-limited → hardened mitigation ladder the
// registry can A/B per filter.
//
// Why it matters for the paper: digest exchange is the first place filter
// damage crosses a trust boundary. §7 shows an adversary who pollutes one
// proxy's cache makes the *sibling* waste a round trip per false hit
// (79% vs 40% of probe queries); attack.RemoteDigestPollution reproduces
// exactly that across two live `evilbloom serve` processes, and the
// Retouched-Bloom-filter literature (Donnet et al.) shows the same
// trade-off propagation in honest meshes.
//
// # HTTP surface
//
//	PUT    /v2/filters/{name}              create (FilterSpec -> FilterInfo, 201; 409 if taken);
//	                                       with Content-Type: application/octet-stream the body
//	                                       is a snapshot envelope and the filter is created from
//	                                       it (naive envelopes only; hardened or mismatched 409)
//	GET    /v2/filters/{name}              public parameters + capabilities
//	DELETE /v2/filters/{name}              delete, including durable state (204; 404 if unknown)
//	GET    /v2/filters                     list all filters
//	POST   /v2/filters/{name}/add          insert one item
//	POST   /v2/filters/{name}/test         membership query
//	POST   /v2/filters/{name}/add-batch    insert up to MaxBatch items
//	POST   /v2/filters/{name}/test-batch   query up to MaxBatch items
//	POST   /v2/filters/{name}/remove       delete one item (counting only; 405 capability error otherwise, 409 when the filter believes the item absent)
//	POST   /v2/filters/{name}/remove-batch delete a batch, per-item outcomes
//	GET    /v2/filters/{name}/stats        fill, weight, FPR, overflow events, per shard
//	GET    /v2/filters/{name}/info         same document as GET /v2/filters/{name}
//	GET    /v2/filters/{name}/snapshot     versioned, checksummed snapshot envelope
//	POST   /v2/filters/{name}/compact      force snapshot + log rotation (durable filters only; 409 otherwise)
//	GET    /v2/filters/{name}/digest       cache-digest envelope (naive filters only; ETag/304)
//	POST   /v2/filters/{name}/digest       push-import a sibling digest (?peer=<label>; 400 corrupt, 409 unusable)
//	POST   /v2/filters/{name}/route        routing verdict: local, peer or origin
//	GET    /v2/filters/{name}/peers        per-peer digest accounting
//	POST   /v2/filters/{name}/peers/refresh  fetch every configured peer's digest now
//	GET    /v2/filters/{name}/clients      per-client mutation accounting (ClientsReport)
//	POST   /v1/{add,test,add-batch,test-batch}  shim over the "default" filter
//	GET    /v1/{stats,info}                     shim over the "default" filter
//
// See Server for the exact wire formats and snapshot.go for the envelope
// layout (compatibility note: the former raw snapshot format, a bare
// shard-count header with unversioned blobs, is gone).
package service
