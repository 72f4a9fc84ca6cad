package attack_test

import (
	"net/http/httptest"
	"testing"

	"evilbloom/internal/attack"
	"evilbloom/internal/hashes"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/service"
	"evilbloom/internal/urlgen"
)

// fig3Geometry is the paper's Fig 3 filter (m=3200, k=4) served live.
func fig3Geometry(mode service.Mode, shards int) service.Config {
	return service.Config{
		Shards:    shards,
		ShardBits: 3200,
		HashCount: 4,
		Mode:      mode,
		Seed:      7,
		Key:       []byte("0123456789abcdef"),
		RouteKey:  []byte("fedcba9876543210"),
	}
}

// startServer brings up a live filter service holding one filter "web" for
// the adversary to attack.
func startServer(t *testing.T, cfg service.Config) (*httptest.Server, *attack.RemoteClient) {
	t.Helper()
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	if _, err := reg.Create("web", cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewRegistryServer(reg))
	t.Cleanup(ts.Close)
	return ts, attack.NewRemoteClient(ts.URL, "web", nil)
}

// remoteCampaign runs the Fig 3 pollution campaign (600 chosen insertions)
// against a live server and returns the server's own post-attack stats —
// the ground truth, independent of the adversary's beliefs.
func remoteCampaign(t *testing.T, client attack.Target, view *attack.RemoteView) *attack.RemoteStats {
	t.Helper()
	adv := attack.NewChosenInsertion(view, view, view, urlgen.New(2))
	if _, err := adv.PolluteN(600, 0); err != nil {
		t.Fatalf("pollution campaign: %v", err)
	}
	if err := view.Err(); err != nil {
		t.Fatalf("transport during campaign: %v", err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// The acceptance scenario: the paper's chosen-insertion attack, run over
// HTTP against a live naive-mode server, reproduces the Fig 3 adversarial
// FPR (≈0.316 after 600 insertions, vs ≈0.077 for random insertions); the
// identical campaign against a hardened-mode server is blunted back to the
// random-insertion level.
func TestRemotePollutionNaiveVsHardened(t *testing.T) {
	// Naive: the adversary reconstructs the index family from the server's
	// published parameters alone.
	_, naiveClient := startServer(t, fig3Geometry(service.ModeNaive, 1))
	naiveView, err := attack.NewRemoteViewFromInfo(naiveClient, 1)
	if err != nil {
		t.Fatalf("building view from public info: %v", err)
	}
	naive := remoteCampaign(t, naiveClient, naiveView)
	// The server counts the adds that changed its bits; every chosen item
	// is fresh by construction, so all 600 count.
	if naive.Count != 600 {
		t.Fatalf("naive server counted %d insertions, want 600", naive.Count)
	}

	// Hardened: the same server geometry with keyed SipHash. The public
	// info publishes no seed, so the from-info constructor must refuse...
	_, hardClient := startServer(t, fig3Geometry(service.ModeHardened, 1))
	if _, err := attack.NewRemoteViewFromInfo(hardClient, 1); err == nil {
		t.Fatal("hardened server let the adversary reconstruct its family from /info")
	}
	// ...and an adversary who assumes the dablooms default anyway gets
	// nothing for her trouble.
	guess, err := hashes.NewDoubleHashing(4, 3200, 7)
	if err != nil {
		t.Fatal(err)
	}
	hard := remoteCampaign(t, hardClient, attack.NewRemoteView(hardClient, guess, 1))
	// Against the keyed family the chosen items are random ones: a few land
	// on bits already set and change nothing, so they are not counted, and
	// each counted add set between 1 and k fresh bits.
	if hard.Count > 600 || hard.Weight < hard.Count || hard.Weight > 4*hard.Count {
		t.Fatalf("hardened server counted %d insertions with weight %d, want count ≤ 600 and count ≤ weight ≤ 4·count", hard.Count, hard.Weight)
	}

	t.Logf("post-campaign server FPR: naive=%.4f (paper 0.316), hardened=%.4f (random ≈0.077)", naive.FPR, hard.FPR)
	if naive.FPR < 0.30 {
		t.Errorf("naive server FPR %.4f, want ≥0.30 (paper: 0.316)", naive.FPR)
	}
	if hard.FPR > 0.12 {
		t.Errorf("hardened server FPR %.4f, want ≤0.12 (random insertions: ≈0.077)", hard.FPR)
	}
	if naive.FPR < 2.5*hard.FPR {
		t.Errorf("hardening blunted the attack only from %.4f to %.4f", naive.FPR, hard.FPR)
	}
}

// Sharding does not blunt the naive-mode attack (the shards share the public
// family, so shadow-fresh items set k fresh bits wherever the keyed router
// sends them): after n polluting insertions the aggregate weight is exactly
// n·k, with zero server-side collisions.
func TestRemotePollutionCrossesShards(t *testing.T) {
	_, client := startServer(t, fig3Geometry(service.ModeNaive, 4))
	view, err := attack.NewRemoteViewFromInfo(client, 1)
	if err != nil {
		t.Fatal(err)
	}
	adv := attack.NewChosenInsertion(view, view, view, urlgen.New(3))
	const n = 150
	if _, err := adv.PolluteN(n, 0); err != nil {
		t.Fatal(err)
	}
	if err := view.Err(); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Weight != n*4 {
		t.Errorf("aggregate weight %d after %d polluting insertions, want exactly %d", st.Weight, n, n*4)
	}
}

// The client must surface server-side rejections and transport failures.
func TestRemoteClientErrors(t *testing.T) {
	_, client := startServer(t, fig3Geometry(service.ModeNaive, 1))
	if err := client.AddBatch([][]byte{nil}); err == nil {
		t.Error("empty item accepted")
	}
	dead := attack.NewRemoteClient("http://127.0.0.1:1", "web", nil)
	if _, err := dead.Info(); err == nil {
		t.Error("unreachable server produced no error")
	}
	view := attack.NewRemoteView(dead, mustFamily(t), 1)
	view.Add([]byte("x"))
	if view.Err() == nil {
		t.Error("transport failure not latched in Err")
	}
	if view.Count() != 0 {
		t.Error("failed Add counted as an insertion")
	}
}

// RemoteClient round trip: adds are visible to tests and batch agrees with
// singleton.
func TestRemoteClientRoundTrip(t *testing.T) {
	_, client := startServer(t, fig3Geometry(service.ModeHardened, 2))
	items := [][]byte{[]byte("http://a.example/1"), []byte("http://a.example/2")}
	if err := client.AddBatch(items); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		ok, err := client.Test(it)
		if err != nil || !ok {
			t.Errorf("Test(%q) = %v, %v", it, ok, err)
		}
	}
	got, err := client.TestBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range got {
		if !ok {
			t.Errorf("batch test %d reported absent", i)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 2 {
		t.Errorf("Count = %d, want 2", st.Count)
	}
}

func mustFamily(t *testing.T) *hashes.DoubleHashing {
	t.Helper()
	fam, err := hashes.NewDoubleHashing(4, 3200, 7)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}
