package attack

import (
	"fmt"
	"net/http"
	"net/url"
)

// This file is the adversary's side of the §7 cache-digest deployment:
// RemoteClient grows the digest-exchange endpoints (route, peers/refresh,
// raw digest export), and RemoteDigestPollution drives the paper's
// two-proxy experiment across two real evilbloom servers — pollute the
// first server's filter through its public add endpoint (over either
// plane), then watch the second server's routing misdirect probe traffic at
// it.

// RemoteRoutePeer is one sibling's answer inside a routing verdict.
type RemoteRoutePeer struct {
	Peer       string  `json:"peer"`
	Claims     bool    `json:"claims"`
	Generation uint64  `json:"generation"`
	AgeSeconds float64 `json:"age_seconds"`
	Stale      bool    `json:"stale"`
}

// RemoteRoute is the server's routing decision for one item
// (POST /v2/filters/{name}/route).
type RemoteRoute struct {
	Local    bool              `json:"local"`
	Verdict  string            `json:"verdict"` // "local", "peer" or "origin"
	Peer     string            `json:"peer"`
	Claiming int               `json:"claiming"` // siblings whose digest claims the item
	Quorum   int               `json:"quorum"`   // claims a peer verdict requires
	Peers    []RemoteRoutePeer `json:"peers"`
}

// Route asks the server where it would send a request for item — the
// observable the §7 adversary corrupts. (Routing is a read; the adversary
// holds the same oracle any client does.)
func (c *RemoteClient) Route(item []byte) (*RemoteRoute, error) {
	var rt RemoteRoute
	if err := c.call(http.MethodPost, c.prefix+"/route", itemBody(item), &rt); err != nil {
		return nil, err
	}
	return &rt, nil
}

// RemotePeerStatus is one sibling's digest accounting as the server reports
// it (GET .../peers, POST .../peers/refresh).
type RemotePeerStatus struct {
	Peer         string  `json:"peer"`
	Source       string  `json:"source"`
	HasDigest    bool    `json:"has_digest"`
	Generation   uint64  `json:"generation"`
	DigestBits   uint64  `json:"digest_bits"`
	DigestWeight uint64  `json:"digest_weight"`
	AgeSeconds   float64 `json:"age_seconds"`
	Stale        bool    `json:"stale"`
	Fetches      uint64  `json:"fetches"`
	NotModified  uint64  `json:"not_modified"`
	Failures     uint64  `json:"failures"`
	LastError    string  `json:"last_error"`
}

// RefreshPeers forces the server to fetch every configured sibling's digest
// now and returns the post-refresh accounting. The experiment harness uses
// it to stand in for the refresh interval elapsing, so runs are
// deterministic.
func (c *RemoteClient) RefreshPeers() ([]RemotePeerStatus, error) {
	var resp struct {
		Peers []RemotePeerStatus `json:"peers"`
	}
	if err := c.call(http.MethodPost, c.prefix+"/peers/refresh", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Peers, nil
}

// Digest fetches the filter's raw cache-digest envelope — public, like
// everything else the digest exchange rests on, so the adversary can
// measure her pollution directly in the artifact the victims will route by.
func (c *RemoteClient) Digest() ([]byte, error) {
	var env []byte
	err := c.call(http.MethodGet, c.prefix+"/digest", nil, &env)
	return env, err
}

// RemotePeerRevocation is the server's acknowledgment of a credential
// revocation (DELETE /v2/peer-tokens/{name}).
type RemotePeerRevocation struct {
	Revoked        string `json:"revoked"`
	DigestsEvicted int    `json:"digests_evicted"`
}

// RevokePeerToken revokes one mesh peer's credential on the server this
// client targets, ejecting that sibling live: its pushes stop
// authenticating, its sealed digests stop verifying, and everything it
// already landed is scrubbed. Server-scoped, not filter-scoped — a
// credential covers every filter.
func (c *RemoteClient) RevokePeerToken(name string) (*RemotePeerRevocation, error) {
	var rev RemotePeerRevocation
	if err := c.call(http.MethodDelete, "/v2/peer-tokens/"+url.PathEscape(name), nil, &rev); err != nil {
		return nil, err
	}
	return &rev, nil
}

// RemoteDigestPollution is the §7 experiment lifted onto two real servers:
// proxy A and proxy B are evilbloom nodes peered over HTTP, each holding a
// same-named filter summarizing its cache. A malicious client fills A's
// filter with crafted items so that the digest B periodically fetches lies
// about nearly everything; B then misroutes its misses to A, wasting a
// round trip per false hit. The honest control run inserts the same number
// of unchosen items instead — the gap between the two false-hit rates is
// the paper's 79%-vs-40% result.
//
// The adversary touches only public surfaces of A (info, add) and only the
// public routing oracle of B. Pollution uses the greedy best-fresh
// campaign: a digest-sized filter saturates under strict condition-(6)
// forging, and digest pollution is about weight.
type RemoteDigestPollution struct {
	// Proxy is server A's filter, the one whose cache the malicious client
	// can populate (any client can: add is public), over either plane.
	Proxy Target
	// ProxyPeer is A's entry in B's peer roster (its base URL), naming the
	// digest the report describes; empty takes the first digest B holds,
	// the two-node layout.
	ProxyPeer string
	// Peer is server B's filter, the routing victim. Routing, refresh and
	// revocation are HTTP reads.
	Peer *RemoteClient
	// Honest, when non-nil, is the filter of a third node H — an honest
	// sibling whose digest B also routes by. It is seeded with CleanN items
	// from HonestTraffic, so in a quorum mesh its lightly loaded digest must
	// corroborate every "peer" verdict the saturated evil digest claims.
	Honest Target
	// HonestTraffic supplies H's cache (required when Honest is set). A
	// stream distinct from CleanTraffic: the siblings cache different
	// objects, as real proxies would.
	HonestTraffic Generator
	// CleanTraffic supplies the honest warm-up items cached on A before
	// the attack window (the paper's 51 pre-cached URLs).
	CleanTraffic Generator
	// ExtraTraffic supplies the attack-window items: inserted as-is in the
	// honest control run, used as the forgery candidate stream in the
	// polluted run (the paper's 100 client-supplied URLs).
	ExtraTraffic Generator
	// Probes supplies query items cached nowhere; every "peer" verdict for
	// one is a digest false hit wasting a round trip.
	Probes Generator
	// CleanN, ExtraN and ProbeN size the phases (paper: 51, 100, 100).
	CleanN, ExtraN, ProbeN int
	// PerItemBudget bounds the per-item forgery search (0 = the greedy
	// default of 20000 candidates).
	PerItemBudget uint64
}

// RemoteDigestReport is the outcome of one run (honest or polluted).
type RemoteDigestReport struct {
	// Polluted records whether the extra items were adversarial.
	Polluted bool
	// Inserted counts items landed on server A (clean + extra).
	Inserted uint64
	// ForgeAttempts counts forgery candidates examined (0 honest).
	ForgeAttempts uint64
	// DigestBits and DigestWeight describe the digest B routes by, as B
	// reports it after its refresh; DigestGeneration is its generation.
	DigestBits, DigestWeight uint64
	DigestGeneration         uint64
	// ServerWeight is A's own occupancy ground truth, for comparison with
	// the adversary's shadow model.
	ServerWeight uint64
	// FalseHits counts probes B routed to a peer — every one a wasted
	// round trip, since probes are cached nowhere.
	FalseHits int
	// Probes is the probe count; FalseHitRate is FalseHits/Probes.
	Probes       int
	FalseHitRate float64
}

// Run executes one §7 run against the two live servers. Both filters must
// be freshly created (the campaign owns their whole history); B must be
// peered at A.
func (c *RemoteDigestPollution) Run(polluted bool) (*RemoteDigestReport, error) {
	if c.CleanN < 0 || c.ExtraN < 0 || c.ProbeN <= 0 {
		return nil, fmt.Errorf("attack: invalid digest campaign sizes (%d, %d, %d)", c.CleanN, c.ExtraN, c.ProbeN)
	}
	// The shadow view reconstructs A's index family from its public info —
	// possible precisely because digest exchange requires a public family.
	view, err := NewRemoteViewFromInfo(c.Proxy, 1)
	if err != nil {
		return nil, err
	}
	// Warm A's cache with honest traffic. The adversary observes it (the
	// §4 threat model grants filter state), so it enters the shadow too.
	for i := 0; i < c.CleanN; i++ {
		view.Add(c.CleanTraffic.Next())
	}
	rep := &RemoteDigestReport{Polluted: polluted, Probes: c.ProbeN}
	if polluted {
		adv := NewChosenInsertion(view, view, view, c.ExtraTraffic)
		points, err := adv.PolluteGreedy(c.ExtraN, c.PerItemBudget)
		if err != nil {
			return nil, err
		}
		// A digest-sized filter can saturate before the attack window ends
		// (every position set — the §4.1 saturation extreme). The client
		// still submits her remaining URLs: they cost nothing to choose
		// and keep both runs' cache sizes identical.
		for i := len(points); i < c.ExtraN; i++ {
			view.Add(c.ExtraTraffic.Next())
		}
		rep.ForgeAttempts = adv.Forger().Attempts
	} else {
		for i := 0; i < c.ExtraN; i++ {
			view.Add(c.ExtraTraffic.Next())
		}
	}
	if err := view.Flush(); err != nil {
		return nil, fmt.Errorf("attack: transport during cache fill: %w", err)
	}
	rep.Inserted = view.Count()

	// A's ground truth, confirming (naive) the shadow model's arithmetic.
	stats, err := c.Proxy.Stats()
	if err != nil {
		return nil, err
	}
	rep.ServerWeight = stats.Weight

	// Seed the honest third sibling, when the deployment has one. Its
	// cache is real traffic, so its digest stays light — the corroboration
	// a quorum verdict will demand.
	if c.Honest != nil {
		if c.HonestTraffic == nil {
			return nil, fmt.Errorf("attack: Honest node set without HonestTraffic")
		}
		cache := make([][]byte, c.CleanN)
		for i := range cache {
			cache[i] = c.HonestTraffic.Next()
		}
		if err := c.Honest.AddBatch(cache); err != nil {
			return nil, fmt.Errorf("attack: seeding honest sibling: %w", err)
		}
	}

	// The digest exchange: B refreshes its view of its siblings — in
	// deployment the jittered interval does this; the experiment forces it
	// for determinism, exactly like ExchangeDigests in the in-process §7
	// run. The report describes A's digest (matched by ProxyPeer; the first
	// digest held when no roster entry matches).
	peers, err := c.Peer.RefreshPeers()
	if err != nil {
		return nil, err
	}
	for _, p := range peers {
		if p.HasDigest && (p.Peer == c.ProxyPeer || rep.DigestBits == 0) {
			rep.DigestBits = p.DigestBits
			rep.DigestWeight = p.DigestWeight
			rep.DigestGeneration = p.Generation
			if p.Peer == c.ProxyPeer {
				break
			}
		}
	}
	if rep.DigestBits == 0 {
		return nil, fmt.Errorf("attack: peer holds no digest after refresh: %+v", peers)
	}

	rep.FalseHits, err = c.Probe()
	if err != nil {
		return nil, err
	}
	rep.FalseHitRate = float64(rep.FalseHits) / float64(c.ProbeN)
	return rep, nil
}

// Probe sends ProbeN fresh probe items — cached nowhere — through B's
// routing oracle and counts peer verdicts; every one is a false hit
// wasting a round trip. Reusable after Run: the Probes stream continues,
// so a caller can re-measure the same mesh after revoking the evil
// sibling's credential.
func (c *RemoteDigestPollution) Probe() (falseHits int, err error) {
	for i := 0; i < c.ProbeN; i++ {
		rt, err := c.Peer.Route(c.Probes.Next())
		if err != nil {
			return falseHits, err
		}
		if rt.Verdict == "peer" {
			falseHits++
		}
	}
	return falseHits, nil
}
