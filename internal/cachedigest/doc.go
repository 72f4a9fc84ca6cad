// Package cachedigest implements Squid's cache-digest mechanism (§7), both
// as an in-process simulation and as the wire format live evilbloom nodes
// exchange digests in.
//
// # The §7 simulation
//
// Sibling proxies periodically exchange Bloom-filter summaries of their
// caches; a proxy receiving a client request checks its siblings' digests
// and fetches from the closest sibling claiming the object. Every digest
// false positive costs at least one wasted round trip between the proxies —
// the quantity the paper's attack inflates.
//
// The digest is built exactly like Squid's: m = 5n + 7 bits for n cached
// objects, k = 4 indexes obtained by splitting one 128-bit MD5 of the store
// key (retrieval method + URL). These parameters are deliberately
// sub-optimal (5 bits/entry instead of 6, k = 4 instead of 3–4 optimal for
// such density), which the paper calls out: for n = 200 the false-positive
// probability is ≈0.09 instead of the optimal 0.03.
//
// analysis.RunExperiment stages the full two-proxy scenario over these
// types — an attacker who populates a sibling's cache with chosen URLs
// before the digest exchange — and measures the wasted-RTT budget;
// `evilbloom squid` prints it next to the paper's 79%-vs-40% false-hit
// numbers.
//
// # The digest envelope
//
// The envelope (envelope.go; its framing is frame.go's, shared with
// snapshots and deltas) is how a digest crosses a process boundary:
// versioned, checksummed, and self-describing — it names the index family
// (murmur3 double hashing for service filters, MD5-split for Squid
// digests), the geometry, and the shard-routing key, so a receiving peer
// can evaluate membership locally via OpenEnvelope and PeerDigest.Test.
// Digest.Envelope exports a Squid digest in the same format, so the
// simulation and a live `evilbloom serve -peer` deployment speak identical
// bytes.
//
// Unlike package service's snapshot envelope, which carries full filter
// state for restoration by the same trusted party, the digest envelope
// carries only the occupancy pattern plus what a peer needs to query it:
// counting filters travel as their non-zero mask (1 bit per position), and
// keyed (hardened) families are unrepresentable by design — their secrets
// never leave the server, and OpenEnvelope rejects unknown families as
// unusable (ErrEnvelopeUnusable) rather than guessing. Structural damage —
// truncation, length lies, checksum mismatch — is ErrEnvelopeCorrupt; the
// HTTP layer maps the pair to 400/409.
//
// The exchange is exactly where §7's trust boundary sits: a peer's digest
// is taken at face value, so polluting one node's filter (§4.1) poisons
// every sibling's routing. Package mesh serves the deployment side; attack.RemoteDigestPollution runs the §7 campaign
// across real servers, polluting over either wire plane.
package cachedigest
