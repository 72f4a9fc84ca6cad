package attack_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"evilbloom/internal/attack"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/service"
	"evilbloom/internal/service/meshtest"
	"evilbloom/internal/urlgen"
)

// digestGeometry is the two-server §7 deployment's filter: single shard so
// the adversary's shadow is exact, k=4 like Squid, and sized so the honest
// run's digest lands at the paper's ≈40% false-hit rate after 151 cached
// items — the baseline the attack then blows past.
func digestGeometry() service.Config {
	return service.Config{
		Shards:    1,
		ShardBits: 384,
		HashCount: 4,
		Seed:      7,
		RouteKey:  []byte("fedcba9876543210"),
	}
}

// digestPair boots two real HTTP servers holding the same-named filter,
// with B peered at A, and returns filter-scoped clients for both.
func digestPair(t *testing.T) (proxy, peer *attack.RemoteClient) {
	t.Helper()
	regA := service.NewRegistry()
	if _, err := regA.Create("cache", digestGeometry()); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(httpapi.NewRegistryServer(regA))
	t.Cleanup(tsA.Close)

	regB := service.NewRegistry()
	// A long interval: the test drives the exchange via RefreshPeers for
	// determinism, like the in-process experiment calls ExchangeDigests.
	if err := regB.ConfigurePeers(service.PeerConfig{Peers: []string{tsA.URL}, Refresh: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Create("cache", digestGeometry()); err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(httpapi.NewRegistryServer(regB))
	t.Cleanup(tsB.Close)
	t.Cleanup(func() { regB.Close(); regA.Close() }) //nolint:errcheck // teardown

	return attack.NewRemoteClient(tsA.URL, "cache", nil),
		attack.NewRemoteClient(tsB.URL, "cache", nil)
}

// runDigestCampaign stages one §7 run (paper phase sizes: 51 clean + 100
// extra cached on A, 100 probes through B) on a fresh server pair.
func runDigestCampaign(t *testing.T, polluted bool) *attack.RemoteDigestReport {
	t.Helper()
	proxy, peer := digestPair(t)
	campaign := &attack.RemoteDigestPollution{
		Proxy:         proxy,
		Peer:          peer,
		CleanTraffic:  urlgen.New(1),
		ExtraTraffic:  urlgen.New(8),
		Probes:        urlgen.New(1000),
		CleanN:        51,
		ExtraN:        100,
		ProbeN:        100,
		PerItemBudget: 30000,
	}
	rep, err := campaign.Run(polluted)
	if err != nil {
		t.Fatalf("campaign (polluted=%v): %v", polluted, err)
	}
	return rep
}

// The acceptance scenario: the §7 cache-digest pollution attack, run across
// two real HTTP servers exchanging digests, reproduces the paper's false-hit
// gap — the polluted digest misroutes ≥70% of probe traffic versus ≈40% for
// the honest control (paper: 79% vs 40%; at this geometry the free-bit
// budget is below the adversary's item budget, so her campaign reaches the
// §4.1 saturation extreme and the polluted rate lands at 1.0).
// Deterministic: fixed seeds, fixed geometry, unkeyed murmur indexes.
func TestRemoteDigestPollutionReproducesSection7Gap(t *testing.T) {
	honest := runDigestCampaign(t, false)
	polluted := runDigestCampaign(t, true)

	t.Logf("honest:   %d/%d false hits (rate %.2f), digest weight %d/%d",
		honest.FalseHits, honest.Probes, honest.FalseHitRate, honest.DigestWeight, honest.DigestBits)
	t.Logf("polluted: %d/%d false hits (rate %.2f), digest weight %d/%d, %d forge attempts",
		polluted.FalseHits, polluted.Probes, polluted.FalseHitRate, polluted.DigestWeight, polluted.DigestBits, polluted.ForgeAttempts)

	if honest.Inserted != 151 || polluted.Inserted != 151 {
		t.Fatalf("cache sizes: honest %d, polluted %d, want 151 each", honest.Inserted, polluted.Inserted)
	}
	// The §7 gap, in absolute terms (paper: 0.79 vs 0.40).
	if polluted.FalseHitRate < 0.7 {
		t.Errorf("polluted false-hit rate %.2f, want ≥ 0.70", polluted.FalseHitRate)
	}
	if honest.FalseHitRate < 0.25 || honest.FalseHitRate > 0.55 {
		t.Errorf("honest false-hit rate %.2f, want ≈ 0.40", honest.FalseHitRate)
	}
	if polluted.FalseHitRate < honest.FalseHitRate+0.2 {
		t.Errorf("no meaningful gap: polluted %.2f vs honest %.2f", polluted.FalseHitRate, honest.FalseHitRate)
	}
	// Pollution is visible in the exchanged artifact itself: the digest B
	// routes by is heavier than the honest one for the same cache size.
	if polluted.DigestWeight <= honest.DigestWeight {
		t.Errorf("pollution did not raise digest weight: %d vs %d", polluted.DigestWeight, honest.DigestWeight)
	}
	if polluted.ForgeAttempts == 0 || honest.ForgeAttempts != 0 {
		t.Errorf("forge accounting: polluted %d, honest %d", polluted.ForgeAttempts, honest.ForgeAttempts)
	}
	// Single shard + public family: the adversary's shadow is exact, so
	// the server's ground truth must equal the digest weight B fetched.
	if polluted.ServerWeight != polluted.DigestWeight {
		t.Errorf("server weight %d differs from exchanged digest weight %d",
			polluted.ServerWeight, polluted.DigestWeight)
	}
}

// quorumCampaign wires the three-node §7 deployment onto a running mesh:
// node 0 is the routing victim B, node 1 the evil sibling E whose cache the
// adversary populates, node 2 the honest sibling H. Phase sizes match the
// two-node acceptance test so the baselines are comparable.
func quorumCampaign(m *meshtest.Mesh) *attack.RemoteDigestPollution {
	return &attack.RemoteDigestPollution{
		Proxy:         attack.NewRemoteClient(m.Nodes[1].URL, m.Filter, nil),
		ProxyPeer:     m.Nodes[1].URL,
		Peer:          attack.NewRemoteClient(m.Nodes[0].URL, m.Filter, nil),
		Honest:        attack.NewRemoteClient(m.Nodes[2].URL, m.Filter, nil),
		HonestTraffic: urlgen.New(5),
		CleanTraffic:  urlgen.New(1),
		ExtraTraffic:  urlgen.New(8),
		Probes:        urlgen.New(1000),
		CleanN:        51,
		ExtraN:        100,
		ProbeN:        100,
		PerItemBudget: 30000,
	}
}

// The three-node acceptance scenario: one evil sibling saturates its
// digest; a single-claim verdict rule misroutes nearly everything (the PR 4
// baseline, unchanged by adding a third node); a quorum of two blunts the
// attack to the honest sibling's ≈3% corroboration rate; and revoking the
// evil credential ejects it live — its digest is scrubbed, refreshes stop
// importing it, and verdicts stay honest. Deterministic seeds and geometry;
// run under -race in CI's mesh-smoke job.
func TestRemoteDigestPollutionQuorum(t *testing.T) {
	// Baseline: unauthenticated pairs mesh, verdict threshold 1. The evil
	// digest alone decides routing, exactly as in the two-node experiment.
	baseMesh := meshtest.StartMesh(t, 3, meshtest.Opts{})
	base, err := quorumCampaign(baseMesh).Run(true)
	if err != nil {
		t.Fatalf("baseline campaign: %v", err)
	}
	t.Logf("baseline (no quorum): %d/%d false hits (rate %.2f), digest weight %d/%d",
		base.FalseHits, base.Probes, base.FalseHitRate, base.DigestWeight, base.DigestBits)
	if base.FalseHitRate < 0.7 {
		t.Errorf("baseline false-hit rate %.2f, want ≥ 0.70", base.FalseHitRate)
	}

	// Quorum mesh: authenticated, verdict needs 2 of 2 sibling claims. The
	// saturated evil digest claims every probe; the honest digest (51
	// cached items in 384 bits, k=4 → fill ≈ 0.41, corroboration ≈ fill⁴
	// ≈ 3%) rarely agrees.
	mesh := meshtest.StartMesh(t, 3, meshtest.Opts{Auth: true, RouteQuorum: 2})
	campaign := quorumCampaign(mesh)
	rep, err := campaign.Run(true)
	if err != nil {
		t.Fatalf("quorum campaign: %v", err)
	}
	t.Logf("quorum 2: %d/%d false hits (rate %.2f), digest weight %d/%d",
		rep.FalseHits, rep.Probes, rep.FalseHitRate, rep.DigestWeight, rep.DigestBits)
	if rep.DigestWeight != rep.DigestBits {
		t.Errorf("evil digest not saturated: weight %d of %d bits", rep.DigestWeight, rep.DigestBits)
	}
	if rep.FalseHitRate >= 0.10 {
		t.Errorf("quorum false-hit rate %.2f, want < 0.10", rep.FalseHitRate)
	}
	// The verdict arithmetic is visible on the wire.
	rt, err := campaign.Peer.Route([]byte("quorum-probe-item"))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Quorum != 2 {
		t.Errorf("route reports quorum %d, want 2", rt.Quorum)
	}

	// Revocation: ejecting the evil sibling's credential on the victim
	// scrubs its digest and refuses everything it seals from now on.
	rev, err := campaign.Peer.RevokePeerToken(meshtest.PeerName(1))
	if err != nil {
		t.Fatalf("revocation: %v", err)
	}
	if rev.Revoked != meshtest.PeerName(1) || rev.DigestsEvicted < 1 {
		t.Errorf("revocation = %+v, want node1 with ≥ 1 digest evicted", rev)
	}
	// A forced refresh must NOT re-import: the evil node still seals with
	// its secret, but the victim no longer holds a live credential for it.
	peers, err := campaign.Peer.RefreshPeers()
	if err != nil {
		t.Fatal(err)
	}
	evilURL := mesh.Nodes[1].URL
	found := false
	for _, p := range peers {
		if p.Peer != evilURL {
			continue
		}
		found = true
		if p.HasDigest {
			t.Errorf("revoked peer's digest re-imported: %+v", p)
		}
		if p.LastError == "" {
			t.Errorf("revoked peer refresh recorded no error: %+v", p)
		}
	}
	if !found {
		t.Fatalf("victim's peer status does not list the evil node %s: %+v", evilURL, peers)
	}
	// With the evil digest gone, only the honest sibling claims — below
	// quorum, so verdicts are honest again.
	falseHits, err := campaign.Probe()
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(falseHits) / float64(campaign.ProbeN)
	t.Logf("post-revocation: %d/%d false hits (rate %.2f)", falseHits, campaign.ProbeN, rate)
	if rate >= 0.10 {
		t.Errorf("post-revocation false-hit rate %.2f, want < 0.10", rate)
	}
}

// The adversary can also verify her work directly: the digest endpoint is
// public, so she fetches the same artifact the victims route by.
func TestRemoteDigestPublicExport(t *testing.T) {
	proxy, _ := digestPair(t)
	if err := proxy.AddBatch([][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	env, err := proxy.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if len(env) == 0 {
		t.Fatal("empty digest envelope")
	}
}
