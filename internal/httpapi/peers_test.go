package httpapi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/engine"
	"evilbloom/internal/mesh"
	"evilbloom/internal/service"
	"evilbloom/internal/urlgen"
)

// naiveSpec is a small deterministic naive filter for digest tests.
func naiveSpec(shards int) FilterSpec {
	return FilterSpec{Shards: shards, ShardBits: 512, HashCount: 4, Seed: 11}
}

// getDigest fetches a filter's digest envelope, returning body, ETag and
// status.
func getDigest(t *testing.T, base, name, ifNoneMatch string) ([]byte, string, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v2/filters/"+name+"/digest", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header.Get("ETag"), resp.StatusCode
}

// The digest endpoint must serve an envelope that answers membership
// exactly like the live filter, for both variants — including across the
// keyed shard routing — and short-circuit unchanged state via the ETag.
func TestDigestEndpointRoundTrip(t *testing.T) {
	for _, variant := range []string{"bloom", "counting"} {
		t.Run(variant, func(t *testing.T) {
			ts, reg := newRegistryTestServer(t)
			spec := naiveSpec(4)
			spec.Variant = variant
			if code := doJSON(t, "PUT", ts.URL+"/v2/filters/d", spec, nil); code != http.StatusCreated {
				t.Fatalf("create status %d", code)
			}
			f, err := reg.Get("d")
			if err != nil {
				t.Fatal(err)
			}
			gen := urlgen.New(3)
			inserted := make([][]byte, 50)
			for i := range inserted {
				inserted[i] = gen.Next()
				f.Store().Add(inserted[i])
			}

			env, etag, code := getDigest(t, ts.URL, "d", "")
			if code != http.StatusOK || etag == "" {
				t.Fatalf("digest status %d etag %q", code, etag)
			}
			d, err := cachedigest.OpenEnvelope(env)
			if err != nil {
				t.Fatal(err)
			}
			if d.Count() != 50 || d.Weight() == 0 {
				t.Errorf("digest header: count=%d weight=%d", d.Count(), d.Weight())
			}
			for _, item := range inserted {
				if !d.Test(item) {
					t.Fatalf("digest denies inserted item %q", item)
				}
			}
			agree := 0
			for i := 0; i < 300; i++ {
				probe := gen.Next()
				if d.Test(probe) == f.Store().Test(probe) {
					agree++
				}
			}
			if agree != 300 {
				t.Errorf("digest disagreed with the filter on %d/300 probes", 300-agree)
			}

			// Unchanged filter: the conditional fetch short-circuits.
			if _, _, code := getDigest(t, ts.URL, "d", etag); code != http.StatusNotModified {
				t.Errorf("If-None-Match on unchanged filter: status %d, want 304", code)
			}
			// A mutation must invalidate the ETag.
			f.Store().Add([]byte("one-more"))
			env2, etag2, code := getDigest(t, ts.URL, "d", etag)
			if code != http.StatusOK || etag2 == etag {
				t.Errorf("post-mutation fetch: status %d etag %q (was %q)", code, etag2, etag)
			}
			if bytes.Equal(env, env2) {
				t.Error("digest unchanged after a mutation")
			}
		})
	}
}

// Hardened filters must refuse digest export: their keyed family never
// travels, so the envelope would be unusable (and a statistics leak).
func TestDigestHardenedRefused(t *testing.T) {
	ts, _ := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/h", FilterSpec{Mode: "hardened", Shards: 1, ShardBits: 512, HashCount: 4}, nil)
	if _, _, code := getDigest(t, ts.URL, "h", ""); code != http.StatusConflict {
		t.Errorf("hardened digest status %d, want 409", code)
	}
	var info FilterInfo
	doJSON(t, "GET", ts.URL+"/v2/filters/h", nil, &info)
	for _, c := range info.Capabilities {
		if c == "digest" {
			t.Error("hardened filter advertises the digest capability")
		}
	}
}

// resealEnvelope recomputes a digest envelope's trailing CRC after a header
// mutation, so the mutation under test is the envelope's only defect.
func resealEnvelope(env []byte) []byte {
	return cachedigest.EnvelopeFrame.Finish(env[:len(env)-4])
}

// pushDigest POSTs an envelope to the digest import endpoint.
func pushDigest(t *testing.T, base, name, peer string, env []byte) (int, string) {
	t.Helper()
	u := base + "/v2/filters/" + name + "/digest"
	if peer != "" {
		u += "?peer=" + peer
	}
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return resp.StatusCode, string(body)
}

// The push-import path's corruption/mismatch table, mirroring the snapshot
// endpoint's: structural damage answers 400, a family no peer can evaluate
// answers 409, and only intact envelopes are stored.
func TestDigestPushStatusTable(t *testing.T) {
	ts, reg := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/d", naiveSpec(2), nil)
	f, err := reg.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	f.Store().Add([]byte("x"))
	env, _, _ := getDigest(t, ts.URL, "d", "")

	cases := []struct {
		name   string
		peer   string
		mutate func([]byte) []byte
		want   int
	}{
		{"valid", "sibling-a", func(e []byte) []byte { return e }, http.StatusOK},
		{"missing peer label", "", func(e []byte) []byte { return e }, http.StatusBadRequest},
		{"truncated", "p", func(e []byte) []byte { return e[:len(e)-7] }, http.StatusBadRequest},
		{"crc flipped", "p", func(e []byte) []byte { e[len(e)-2] ^= 1; return e }, http.StatusBadRequest},
		{"bad magic", "p", func(e []byte) []byte { e[3] ^= 0xff; return e }, http.StatusBadRequest},
		{"wrong variant", "p", func(e []byte) []byte { e[11] = 5; return resealEnvelope(e) }, http.StatusBadRequest},
		{"impossible geometry", "p", func(e []byte) []byte {
			binary.LittleEndian.PutUint64(e[40:], 1<<40)
			return resealEnvelope(e)
		}, http.StatusBadRequest},
		{"unknown keyed family", "p", func(e []byte) []byte { e[10] = 9; return resealEnvelope(e) }, http.StatusConflict},
		{"trailing bytes", "trailing", func(e []byte) []byte { return append(e, "garbage"...) }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := pushDigest(t, ts.URL, "d", tc.peer, tc.mutate(append([]byte(nil), env...)))
			if code != tc.want {
				t.Fatalf("status %d (%s), want %d", code, body, tc.want)
			}
		})
	}

	if code, _ := pushDigest(t, ts.URL, "nope", "p", env); code != http.StatusNotFound {
		t.Errorf("push to unknown filter: want 404")
	}
	var peers peersResponse
	doJSON(t, "GET", ts.URL+"/v2/filters/d/peers", nil, &peers)
	for _, ps := range peers.Peers {
		if ps.Peer == "trailing" {
			t.Errorf("a push with trailing bytes stored a digest: %+v", ps)
		}
	}

	// The one valid push above must now answer routing queries.
	var rt RouteResponse
	doJSON(t, "POST", ts.URL+"/v2/filters/d/route", itemRequest{Item: "x"}, &rt)
	if !rt.Local {
		t.Error("route misses the local item")
	}
	claimed := false
	for _, pc := range rt.Peers {
		if pc.Peer == "sibling-a" && pc.Claims {
			claimed = true
		}
	}
	if !claimed {
		t.Errorf("pushed digest not consulted: %+v", rt.Peers)
	}
}

// twoServers wires B into A's mesh: both carry the same-named filter, and B
// fetches A's digest. Returns both base URLs and B's registry.
func twoServers(t *testing.T, name string, refresh time.Duration) (a, b *httptest.Server, regA, regB *service.Registry) {
	t.Helper()
	regA = service.NewRegistry()
	a = httptest.NewServer(NewRegistryServer(regA))
	t.Cleanup(a.Close)
	regB = service.NewRegistry()
	engB := engine.New(regB)
	b = httptest.NewServer(NewEngineServer(engB))
	t.Cleanup(b.Close)
	if err := engB.ConfigureMesh(mesh.PeerConfig{Peers: []string{a.URL}, Refresh: refresh}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { regB.Close(); regA.Close() }) //nolint:errcheck // test teardown
	if code := doJSON(t, "PUT", a.URL+"/v2/filters/"+name, naiveSpec(2), nil); code != http.StatusCreated {
		t.Fatal("create on A failed")
	}
	if code := doJSON(t, "PUT", b.URL+"/v2/filters/"+name, naiveSpec(2), nil); code != http.StatusCreated {
		t.Fatal("create on B failed")
	}
	return a, b, regA, regB
}

// Two live servers: B pulls A's digest and routes by it — local beats peer,
// peer beats origin — and the conditional refresh path counts a 304 when
// A's filter has not changed.
func TestPeerExchangeAndRouting(t *testing.T) {
	a, b, _, _ := twoServers(t, "mesh", time.Hour)

	// A caches an item; B refreshes and must route to the peer.
	doJSON(t, "POST", a.URL+"/v2/filters/mesh/add", itemRequest{Item: "cached-on-a"}, nil)
	var ps peersResponse
	if code := doJSON(t, "POST", b.URL+"/v2/filters/mesh/peers/refresh", nil, &ps); code != http.StatusOK {
		t.Fatalf("refresh status %d", code)
	}
	if len(ps.Peers) != 1 || !ps.Peers[0].HasDigest || ps.Peers[0].Fetches == 0 {
		t.Fatalf("peer status after refresh: %+v", ps.Peers)
	}

	var rt RouteResponse
	doJSON(t, "POST", b.URL+"/v2/filters/mesh/route", itemRequest{Item: "cached-on-a"}, &rt)
	if rt.Verdict != "peer" || rt.Peer != a.URL || rt.Local {
		t.Errorf("route for A's item: %+v, want peer verdict naming %s", rt, a.URL)
	}
	doJSON(t, "POST", b.URL+"/v2/filters/mesh/route", itemRequest{Item: "nowhere-item"}, &rt)
	if rt.Verdict != "origin" {
		t.Errorf("route for uncached item: %+v, want origin", rt)
	}
	// Local cache wins over a claiming peer.
	doJSON(t, "POST", b.URL+"/v2/filters/mesh/add", itemRequest{Item: "cached-on-a"}, nil)
	doJSON(t, "POST", b.URL+"/v2/filters/mesh/route", itemRequest{Item: "cached-on-a"}, &rt)
	if rt.Verdict != "local" || !rt.Local {
		t.Errorf("route for locally cached item: %+v, want local", rt)
	}

	// Unchanged A: the second refresh must short-circuit on the ETag.
	doJSON(t, "POST", b.URL+"/v2/filters/mesh/peers/refresh", nil, &ps)
	if ps.Peers[0].NotModified == 0 {
		t.Errorf("second refresh did not short-circuit: %+v", ps.Peers[0])
	}
	fetchesBefore := ps.Peers[0].Fetches
	// A mutation on A must defeat the short-circuit.
	doJSON(t, "POST", a.URL+"/v2/filters/mesh/add", itemRequest{Item: "another"}, nil)
	doJSON(t, "POST", b.URL+"/v2/filters/mesh/peers/refresh", nil, &ps)
	if ps.Peers[0].Fetches != fetchesBefore+1 {
		t.Errorf("refresh after mutation: %+v, want a full fetch", ps.Peers[0])
	}

	// GET .../peers mirrors the refresh response.
	var ps2 peersResponse
	if code := doJSON(t, "GET", b.URL+"/v2/filters/mesh/peers", nil, &ps2); code != http.StatusOK || len(ps2.Peers) != 1 {
		t.Fatalf("peers status: %d %+v", code, ps2)
	}
}

// A dead peer must be accounted, not crash anything: failures and
// consecutive counters rise, the last error is reported, and routing keeps
// answering from what is held (nothing, here).
func TestPeerFailureAccounting(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	reg := service.NewRegistry()
	eng := engine.New(reg)
	ts := httptest.NewServer(NewEngineServer(eng))
	t.Cleanup(ts.Close)
	if err := eng.ConfigureMesh(mesh.PeerConfig{Peers: []string{deadURL}, Refresh: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // test teardown
	doJSON(t, "PUT", ts.URL+"/v2/filters/m", naiveSpec(1), nil)

	var ps peersResponse
	doJSON(t, "POST", ts.URL+"/v2/filters/m/peers/refresh", nil, &ps)
	st := ps.Peers[0]
	if st.HasDigest || st.Failures == 0 || st.ConsecutiveFailures == 0 || st.LastError == "" {
		t.Errorf("dead peer accounting: %+v", st)
	}
	var rt RouteResponse
	doJSON(t, "POST", ts.URL+"/v2/filters/m/route", itemRequest{Item: "x"}, &rt)
	if rt.Verdict != "origin" || len(rt.Peers) != 1 || rt.Peers[0].Claims {
		t.Errorf("route with dead peer: %+v", rt)
	}
}

// Refreshing a mesh that was never configured is a 409, not a silent no-op
// pretending an exchange happened.
func TestPeersRefreshWithoutMesh(t *testing.T) {
	ts, _ := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/m", naiveSpec(1), nil)
	var er errorResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/filters/m/peers/refresh", nil, &er); code != http.StatusConflict {
		t.Errorf("refresh without peers: status %d (%+v), want 409", code, er)
	}
	// The passive surfaces still answer.
	var ps peersResponse
	if code := doJSON(t, "GET", ts.URL+"/v2/filters/m/peers", nil, &ps); code != http.StatusOK || len(ps.Peers) != 0 {
		t.Errorf("peers without mesh: %d %+v", code, ps)
	}
	var rt RouteResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/filters/m/route", itemRequest{Item: "x"}, &rt); code != http.StatusOK {
		t.Errorf("route without mesh: status %d", code)
	}
}

// refreshLoopCount counts live peer-refresh goroutines by stack inspection.
func refreshLoopCount() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "(*Peers).refreshLoop")
}

// waitNoRefreshLoops asserts every refresh goroutine exits within deadline.
func waitNoRefreshLoops(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for refreshLoopCount() != 0 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("peer refresh goroutine leaked:\n%s", buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Delete and Close must stop a filter's refresh work: no goroutine may
// outlive its filter (run under -race in CI, where a leaked loop would also
// race with test teardown).
func TestDeleteAndCloseStopPeerRefresh(t *testing.T) {
	if n := refreshLoopCount(); n != 0 {
		t.Fatalf("%d refresh loops running before the test", n)
	}
	a := httptest.NewServer(NewRegistryServer(service.NewRegistry()))
	t.Cleanup(a.Close)
	reg := service.NewRegistry()
	if err := engine.New(reg).ConfigureMesh(mesh.PeerConfig{Peers: []string{a.URL}, Refresh: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := reg.Create(fmt.Sprintf("f%d", i), service.Config{Shards: 1, ShardBits: 64, HashCount: 2}); err != nil {
			t.Fatal(err)
		}
	}
	// A freshly spawned goroutine takes a beat to appear in stack dumps.
	waitForCount := func(want int) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for refreshLoopCount() != want {
			if time.Now().After(deadline) {
				t.Fatalf("refresh loops = %d, want %d", refreshLoopCount(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitForCount(3)
	// Deleting one filter stops exactly its loop, synchronously.
	if err := reg.Delete("f1"); err != nil {
		t.Fatal(err)
	}
	waitForCount(2)
	// Close stops the rest — the shutdown path's guarantee.
	reg.Close() //nolint:errcheck // memory-only registry
	waitNoRefreshLoops(t)
	// A closed mesh refuses new watches rather than leaking them.
	if _, err := reg.Create("late", service.Config{Shards: 1, ShardBits: 64, HashCount: 2}); err != nil {
		t.Fatal(err)
	}
	waitNoRefreshLoops(t)
}

// Push is unauthenticated, so it must enforce its retention budget from
// the envelope header BEFORE buffering any payload: a header claiming a
// 2^33-bit digest (1 GiB — valid per the envelope format) is refused with
// 409 even though no payload bytes were ever sent, and the label count is
// capped like the registry caps filter creation.
func TestDigestPushBudget(t *testing.T) {
	ts, reg := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/d", naiveSpec(1), nil)
	f, err := reg.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	f.Store().Add([]byte("x"))
	env, _, _ := getDigest(t, ts.URL, "d", "")

	// Header-only request claiming shards=2^16 × shard_bits=2^17 = 2^33
	// bits: within the envelope format's limit, far over the push budget.
	huge := make([]byte, cachedigest.EnvelopeHeaderLen)
	copy(huge, env[:cachedigest.EnvelopeHeaderLen])
	binary.LittleEndian.PutUint64(huge[32:], 1<<16) // shards
	binary.LittleEndian.PutUint64(huge[40:], 1<<17) // shard bits
	words := uint64(1<<17) / 64
	binary.LittleEndian.PutUint64(huge[80:], (1<<16)*(8+8*words)) // implied payload
	code, body := pushDigest(t, ts.URL, "d", "fat", huge)
	if code != http.StatusConflict {
		t.Fatalf("oversized push: status %d (%s), want 409 before any payload", code, body)
	}
	if !strings.Contains(body, "budget") {
		t.Errorf("oversized push error does not name the budget: %s", body)
	}

	// Label cap: mesh.MaxPushedPeers distinct labels fit, the next is refused;
	// re-pushing an existing label is a replacement, not a new entry.
	for i := 0; i < mesh.MaxPushedPeers; i++ {
		if code, body := pushDigest(t, ts.URL, "d", fmt.Sprintf("sib-%d", i), env); code != http.StatusOK {
			t.Fatalf("push %d: status %d (%s)", i, code, body)
		}
	}
	if code, _ := pushDigest(t, ts.URL, "d", "one-too-many", env); code != http.StatusConflict {
		t.Errorf("push beyond mesh.MaxPushedPeers: status %d, want 409", code)
	}
	if code, _ := pushDigest(t, ts.URL, "d", "sib-0", env); code != http.StatusOK {
		t.Errorf("replacing an existing label refused at the cap")
	}
}
