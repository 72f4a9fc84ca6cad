// Package mesh is the §7 cache-digest exchange between evilbloom nodes:
// who fetches whose digest, which digests a node believes, and the
// credential roster that decides it.
//
// Squid siblings periodically ship each other Bloom-filter summaries of
// their caches and use them to decide where to route a miss. Here every
// filter in a registry can take part. With `evilbloom serve -peer <url>`
// (repeatable) the node joins a mesh: every local filter runs one refresh
// loop that fetches each peer's same-named filter's cache digest
// (GET /v2/filters/{name}/digest) on a jittered interval. Digests travel in
// package cachedigest's versioned, checksummed envelope — the occupancy
// pattern plus the public placement rule (layout, seed, geometry and, under
// layout 1, the shard-routing key), so the receiver evaluates membership
// locally through the same hashes.Placement; a counting filter's digest is
// its non-zero mask, one bit per position. The digest endpoint's ETag is
// the store's Generation (a per-shard mutation counter summed in
// O(shards)), so an unchanged filter answers a conditional fetch with 304
// and no serialization at all. Hardened filters export no digest: their
// keyed family never travels, and the endpoint answers 409.
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
// The registry tells the mesh when a filter comes and goes, through the
// one lifecycle hook internal/engine installs: a filter's refresh loop
// starts when the filter is published and is stopped — synchronously, no
// goroutine outlives its filter — by Registry.Delete and Registry.Close.
//
// # Trust
//
// The exchange crosses a trust boundary, and that is the point of serving
// it: a peer's digest is taken at face value, so an adversary who pollutes
// one node's filter (§4.1) poisons every sibling's routing — the §7
// attack, run live by attack.RemoteDigestPollution (pollution over either
// wire plane, the victim's routing read over HTTP). The digests themselves
// are integrity-checked (CRC, size-bounded before buffering), so a corrupt
// peer can waste round trips but not crash the receiver.
//
// The credential roster (-peer-token, PeerConfig.Tokens) is the -auth-token
// mirror for nodes: a client token answers "which client is spending this
// mutation budget"; a peer token answers "which node vouches for this
// digest". The tables stay separate so the threat models do — a leaked
// client secret must not let its holder seal digests, and a sibling's mesh
// credential must not spend a client's budget. The roster is symmetric:
// every node is started with the same list, its own entry first. Digests
// travel with an HMAC trailer keyed by the sealing node's secret (see
// cachedigest.Seal), so verification needs the roster, not a per-pair key
// exchange. Revoking one credential — Revoke, DELETE
// /v2/peer-tokens/{name} — immediately ejects that sibling: its pushes stop
// authenticating, its sealed fetches stop verifying, and every digest it
// already landed is scrubbed.
//
// A quorum above one turns routing into a committee vote: with
// -route-quorum q, a single poisoned digest cannot swing a verdict.
//
// Why it matters for the paper: digest exchange is the first place filter
// damage crosses a trust boundary. §7 shows an adversary who pollutes one
// proxy's cache makes the *sibling* waste a round trip per false hit (79%
// vs 40% of probe queries); attack.RemoteDigestPollution reproduces exactly
// that across live `evilbloom serve` processes, and the
// Retouched-Bloom-filter literature (Donnet et al.) shows the same
// trade-off propagation in honest meshes.
package mesh
