package attack_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"evilbloom/internal/attack"
	"evilbloom/internal/hashes"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/service"
	"evilbloom/internal/urlgen"
)

// startRegistryServer brings up a live multi-filter service and creates one
// counting filter through the wire API, exactly as a remote operator would.
func startRegistryServer(t *testing.T, name string, spec httpapi.FilterSpec) (*httptest.Server, *attack.RemoteClient) {
	t.Helper()
	ts := httptest.NewServer(httpapi.NewRegistryServer(service.NewRegistry()))
	t.Cleanup(ts.Close)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/filters/"+name, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("creating filter %q: status %d", name, resp.StatusCode)
	}
	return ts, attack.NewRemoteClient(ts.URL, name, nil)
}

// countingSpec is the paper's Fig 3 geometry (m=3200, k=4) as one counting
// shard — the single-filter setting of §4.3. Only the naive spec carries a
// seed; the server rejects one on a hardened filter (keys are server-side).
func countingSpec(mode string) httpapi.FilterSpec {
	spec := httpapi.FilterSpec{
		Variant:   "counting",
		Mode:      mode,
		Shards:    1,
		ShardBits: 3200,
		HashCount: 4,
	}
	if mode == "naive" {
		spec.Seed = 7
	}
	return spec
}

// honestWorkload inserts a blocklist of honest items plus the victim
// through the public API and returns the honest control set.
func honestWorkload(t *testing.T, client attack.Target, victim []byte) [][]byte {
	t.Helper()
	gen := urlgen.New(400)
	honest := make([][]byte, 50)
	for i := range honest {
		honest[i] = gen.Next()
	}
	if err := client.AddBatch(honest); err != nil {
		t.Fatal(err)
	}
	if err := client.AddBatch([][]byte{victim}); err != nil {
		t.Fatal(err)
	}
	return honest
}

// The acceptance scenario for the §4.3 deletion adversary run end-to-end
// over HTTP: against a naive counting server she induces a targeted false
// negative on an honest victim item using only the public add/test/remove
// endpoints, while the hardened server under the identical campaign refuses
// her crafted removals and keeps the victim present.
func TestRemoteDeletionNaiveVsHardened(t *testing.T) {
	victim := []byte("http://honest.example.com/blocked-page")

	// --- Naive server: seed published, family reconstructible, evictable.
	_, naive := startRegistryServer(t, "blocklist", countingSpec("naive"))
	honest := honestWorkload(t, naive, victim)
	adv, err := attack.NewRemoteDeletionFromInfo(naive, urlgen.New(11))
	if err != nil {
		t.Fatalf("reconstructing family from public info: %v", err)
	}
	rep, err := adv.Evict(victim, 100000, 30)
	if err != nil {
		t.Fatalf("campaign against naive server: %v", err)
	}
	if !rep.Evicted {
		t.Fatalf("naive server resisted: %+v", rep)
	}
	present, err := naive.Test(victim)
	if err != nil {
		t.Fatal(err)
	}
	if present {
		t.Error("server still reports the evicted victim present")
	}
	// The campaign is targeted: the honest blocklist survives almost
	// untouched (a control item sharing a drained counter may be collateral).
	survivors := 0
	got, err := naive.TestBatch(honest)
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := range got {
		if ok {
			survivors++
		}
	}
	if survivors < len(honest)-3 {
		t.Errorf("only %d/%d honest items survived; the attack should be targeted", survivors, len(honest))
	}
	t.Logf("naive: evicted in %d rounds, %d removals accepted, %d covers, %d/%d honest survive",
		rep.Rounds, rep.Accepted, rep.CoverAdds, survivors, len(honest))

	// --- Hardened server: no seed published; the from-info constructor
	// must refuse...
	_, hard := startRegistryServer(t, "blocklist", countingSpec("hardened"))
	honestWorkload(t, hard, victim)
	if _, err := attack.NewRemoteDeletionFromInfo(hard, urlgen.New(11)); err == nil {
		t.Fatal("hardened server let the adversary reconstruct its family from /info")
	}
	// ...and the identical campaign driven with the guessed dablooms-style
	// family gets nowhere: removals are refused, the victim stays.
	guess, err := hashes.NewDoubleHashing(4, 3200, 7)
	if err != nil {
		t.Fatal(err)
	}
	hardAdv := attack.NewRemoteDeletion(hard, guess, urlgen.New(11))
	hardRep, err := hardAdv.Evict(victim, 100000, 12)
	if err != nil {
		t.Fatalf("campaign against hardened server: %v", err)
	}
	if hardRep.Evicted {
		t.Errorf("hardened server evicted the victim: %+v", hardRep)
	}
	if hardRep.Refused == 0 {
		t.Errorf("hardened server refused no removals: %+v", hardRep)
	}
	present, err = hard.Test(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !present {
		t.Error("victim lost on the hardened server")
	}
	t.Logf("hardened: %d rounds, %d removals refused, %d accepted, victim present",
		hardRep.Rounds, hardRep.Refused, hardRep.Accepted)
}

// Multi-shard eviction also works: the adversary cannot predict the secret
// shard routing, but the public test endpoint is an oracle for whether her
// covers landed where her removal item needs them, so she re-covers until
// it does.
func TestRemoteDeletionCrossesShards(t *testing.T) {
	spec := countingSpec("naive")
	spec.Shards = 4
	_, client := startRegistryServer(t, "blocklist", spec)
	victim := []byte("http://honest.example.com/blocked-page")
	honestWorkload(t, client, victim)
	adv, err := attack.NewRemoteDeletionFromInfo(client, urlgen.New(23))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := adv.Evict(victim, 100000, 60)
	if err != nil {
		t.Fatalf("multi-shard campaign: %v", err)
	}
	if !rep.Evicted {
		t.Fatalf("4-shard naive server resisted: %+v", rep)
	}
	t.Logf("4 shards: evicted in %d rounds, %d accepted, %d refused, %d covers",
		rep.Rounds, rep.Accepted, rep.Refused, rep.CoverAdds)
}

// The remove client distinguishes refusals from transport errors and
// surfaces capability rejections.
func TestRemoteRemoveClient(t *testing.T) {
	_, client := startRegistryServer(t, "counts", countingSpec("naive"))
	item := []byte("http://a.example/1")
	if err := client.AddBatch([][]byte{item}); err != nil {
		t.Fatal(err)
	}
	ok, err := client.Remove(item)
	if err != nil || !ok {
		t.Fatalf("Remove(inserted) = %v, %v", ok, err)
	}
	ok, err = client.Remove(item)
	if err != nil || ok {
		t.Fatalf("Remove(absent) = %v, %v; want refused without error", ok, err)
	}
	// A bloom filter rejects removal with a capability error.
	_, bloom := startRegistryServer(t, "plain", httpapi.FilterSpec{
		Shards: 1, ShardBits: 3200, HashCount: 4, Seed: 7,
	})
	if _, err := bloom.Remove(item); err == nil {
		t.Error("bloom-backed filter accepted a remove")
	}
}

// A refused removal is an answer like any other: its body is drained so the
// keep-alive connection survives, and a hardened deletion campaign — one
// refusal per round — does not dial once per round.
func TestRefusedRemovalsKeepTheConnection(t *testing.T) {
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	if _, err := reg.Create("blocklist", service.Config{
		Variant: service.VariantCounting, Mode: service.ModeHardened,
		Shards: 1, ShardBits: 3200, HashCount: 4, Key: []byte("0123456789abcdef"),
	}); err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int32
	ts := httptest.NewUnstartedServer(httpapi.NewRegistryServer(reg))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	client := attack.NewRemoteClient(ts.URL, "blocklist", ts.Client())
	for i := 0; i < 20; i++ {
		ok, err := client.Remove([]byte(fmt.Sprintf("http://never.example/%d", i)))
		if err != nil || ok {
			t.Fatalf("removal %d = %v, %v; want refused without error", i, ok, err)
		}
	}
	if n := dials.Load(); n > 2 {
		t.Errorf("20 refused removals used %d connections, want ≤ 2", n)
	}
}

// The v2 info endpoint publishes everything the §4.3 adversary needs
// against a naive filter — and nothing family-identifying for hardened.
func TestRemoteInfoV2(t *testing.T) {
	_, naive := startRegistryServer(t, "blocklist", countingSpec("naive"))
	info, err := naive.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Variant != "counting" || info.CounterWidth != 4 || info.Overflow != "saturate" {
		t.Errorf("counting info incomplete: %+v", info)
	}
	if info.Seed == nil || *info.Seed != 7 {
		t.Errorf("naive info must publish the seed: %+v", info)
	}
	hasRemove := false
	for _, c := range info.Capabilities {
		if c == "remove" {
			hasRemove = true
		}
	}
	if !hasRemove {
		t.Errorf("counting filter must advertise the remove capability: %v", info.Capabilities)
	}

	_, hard := startRegistryServer(t, "blocklist", countingSpec("hardened"))
	hinfo, err := hard.Info()
	if err != nil {
		t.Fatal(err)
	}
	if hinfo.Seed != nil {
		t.Errorf("hardened info leaks a seed: %+v", hinfo)
	}
}
