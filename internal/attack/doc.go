// Package attack implements the paper's three adversary models (§4): the
// chosen-insertion adversary (pollution and saturation, §4.1), the
// query-only adversary (false-positive forgery and worst-case-latency
// queries, §4.2) and the deletion adversary (§4.3). All adversaries follow
// the threat model of §4: the filter is maintained by a trusted party, its
// implementation and parameters are public, and — for query-only and
// deletion adversaries — its current state is known.
//
// Forgery is brute-force search over a candidate-item generator, exactly as
// the paper describes ("an item is selected at random and its k indexes are
// computed; if [the condition fails] the item is discarded and a new one is
// tried"). For MurmurHash-based filters, package hashes additionally
// provides constant-time pre-images, which this package wires into instant
// (search-free) variants of every attack.
//
// The adversary sees the filter through a View: how items map to index
// positions and which positions are occupied. Views exist for every
// in-process filter variant (NewBloomView, NewCountingView,
// NewPartitionedView) and — via RemoteView — for one filter of a live
// `evilbloom serve` instance, where the adversary keeps a local shadow of
// the server state from nothing but its public parameters and her own
// acknowledged insertions. That last view turns every in-process attack
// into a client-vs-server scenario.
//
// The live campaigns are written once, against Target — info, stats, add,
// test and remove, with rate-limit refusals surfacing as *ThrottledError —
// and run unchanged over either wire plane: RemoteClient adapts the HTTP/JSON
// API, resp.Target the binary RESP plane. PublicFamily is the one place
// published parameters become the adversary's index family.
//
//   - RemotePollution is §4.1's chosen-insertion campaign in its greedy
//     form. It counts throttled insertions instead of assuming every one
//     lands, so pointed at a server defending itself with per-client
//     mutation budgets (`evilbloom serve -rate-mutations`, the paper's own
//     suggested countermeasure) it measures what the defence buys: damage
//     capped at the burst, every refusal attributed (RemoteClient.Clients).
//   - RemoteDeletion is §4.3: against a naive counting filter served with
//     public remove endpoints, it assembles false positives out of the
//     adversary's own legitimate insertions and has the server delete them,
//     draining a targeted honest item's counters into a false negative; a
//     hardened server refuses the same campaign because the crafted items
//     are not false positives under its keyed family.
//   - RemoteDigestPollution is §7 across machines: live nodes exchange cache
//     digests, and the adversary fills one node's filter with chosen items
//     so the digest a sibling routes by lies about nearly everything. The
//     damage lands on a server she never mutated — one wasted round trip
//     per false hit, the paper's 79%-vs-40% gap over real HTTP. The
//     sibling's routing oracle and the mesh controls are HTTP reads.
package attack
