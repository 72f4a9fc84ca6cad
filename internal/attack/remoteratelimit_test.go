package attack_test

import (
	"errors"
	"net/http/httptest"
	"testing"

	"evilbloom/internal/attack"
	"evilbloom/internal/engine"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/service"
	"evilbloom/internal/urlgen"
)

// saturableGeometry is a digest-sized single-shard filter (m=640, k=4) an
// unthrottled greedy campaign saturates well inside the request budget, so
// the rate limit's effect — a server that *cannot* be saturated in the same
// budget — is unambiguous.
func saturableGeometry() service.Config {
	return service.Config{
		Shards:    1,
		ShardBits: 640,
		HashCount: 4,
		Seed:      7,
		RouteKey:  []byte("fedcba9876543210"),
	}
}

// startCampaignServer boots a registry server holding one "cache" filter,
// optionally behind a mutation rate limit.
func startCampaignServer(t *testing.T, rate *engine.RateLimitConfig) *attack.RemoteClient {
	t.Helper()
	reg := service.NewRegistry()
	eng := engine.New(reg)
	if rate != nil {
		if err := eng.ConfigureRateLimit(*rate); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Create("cache", saturableGeometry()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewEngineServer(eng))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	return attack.NewRemoteClient(ts.URL, "cache", nil)
}

// The acceptance scenario: the same chosen-insertion campaign, same filter
// geometry, same request budget. Unthrottled, the campaign saturates the
// filter (FPR → 1). Behind `-rate-mutations`, the identical campaign's
// damage is capped at the burst: the end-state FPR stays below half the
// unthrottled end state, and the server's clients endpoint attributes every
// blocked mutation to the attacking identity.
func TestRemoteThrottledPollutionBluntsCampaign(t *testing.T) {
	const (
		requests = 600
		burst    = 100
	)
	// The throttled server refills at one mutation per hour: within the
	// seconds this test runs, the budget is exactly the burst.
	throttledCfg := &engine.RateLimitConfig{
		MutationsPerSec: 1.0 / 3600,
		Burst:           burst,
		MaxClients:      16,
		TrustProxy:      true,
	}

	naive := &attack.RemotePollution{
		Target:   startCampaignServer(t, nil),
		Traffic:  urlgen.New(2),
		Requests: requests,
	}
	naiveRep, err := naive.Run()
	if err != nil {
		t.Fatal(err)
	}

	mallory := startCampaignServer(t, throttledCfg).WithIdentity("mallory")
	throttled := &attack.RemotePollution{
		Target:   mallory,
		Traffic:  urlgen.New(2), // the very same candidate stream
		Requests: requests,
	}
	throttledRep, err := throttled.Run()
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("unthrottled: %d requests, saturated at %d, server FPR %.4f",
		naiveRep.Requests, naiveRep.SaturatedAt, naiveRep.ServerFPR)
	t.Logf("throttled:   %d requests (%d accepted, %d bounced, first 429 at %d, Retry-After %v), server FPR %.4f",
		throttledRep.Requests, throttledRep.Accepted, throttledRep.Throttled,
		throttledRep.FirstThrottle, throttledRep.LastRetryAfter, throttledRep.ServerFPR)

	// The unthrottled naive server is saturated inside the budget.
	if naiveRep.SaturatedAt == 0 || naiveRep.Requests > requests {
		t.Fatalf("unthrottled campaign did not saturate within %d requests: %+v", requests, naiveRep)
	}
	if naiveRep.ServerFPR < 0.99 {
		t.Errorf("saturated server FPR %.4f, want ≈1", naiveRep.ServerFPR)
	}
	if naiveRep.Throttled != 0 {
		t.Errorf("unthrottled server answered %d 429s", naiveRep.Throttled)
	}

	// The rate-limited server, same campaign, same budget: exactly the
	// burst lands, the rest bounce with a Retry-After, and the filter never
	// saturates.
	if throttledRep.Accepted != burst {
		t.Errorf("accepted %d mutations, want exactly the burst of %d", throttledRep.Accepted, burst)
	}
	if throttledRep.Throttled != requests-burst {
		t.Errorf("throttled %d, want %d", throttledRep.Throttled, requests-burst)
	}
	if throttledRep.FirstThrottle != burst+1 {
		t.Errorf("first 429 at request %d, want %d", throttledRep.FirstThrottle, burst+1)
	}
	if throttledRep.SaturatedAt != 0 {
		t.Error("rate-limited server was saturated anyway")
	}
	if throttledRep.LastRetryAfter <= 0 {
		t.Error("429 carried no usable Retry-After")
	}
	// The acceptance bound: below half the unthrottled end state. (In
	// practice far below: burst×k of m bits.)
	if throttledRep.ServerFPR >= naiveRep.ServerFPR/2 {
		t.Errorf("throttled FPR %.4f not below half the unthrottled %.4f",
			throttledRep.ServerFPR, naiveRep.ServerFPR)
	}
	// The shadow stayed exact: only accepted items entered it, so the
	// server's weight is precisely what the adversary believes.
	if want := uint64(burst * 4); throttledRep.ServerWeight != want || throttledRep.ShadowWeight != want {
		t.Errorf("server weight %d, shadow %d, want %d (burst × k, shadow-exact)",
			throttledRep.ServerWeight, throttledRep.ShadowWeight, want)
	}

	// Attribution: the server names mallory, with every blocked mutation
	// charged to her identity.
	clients, err := mallory.Clients()
	if err != nil {
		t.Fatal(err)
	}
	if !clients.Enabled || len(clients.Clients) == 0 {
		t.Fatalf("clients report: %+v", clients)
	}
	top := clients.Clients[0]
	if top.Client != "mallory" {
		t.Errorf("top offender %q, want mallory", top.Client)
	}
	if top.Allowed != burst || top.Throttled != requests-burst {
		t.Errorf("mallory's ledger: %d allowed / %d throttled, want %d/%d",
			top.Allowed, top.Throttled, burst, requests-burst)
	}
}

// An insertion has three outcomes on the wire: accepted, throttled — a
// *ThrottledError carrying Retry-After, nothing landed — and hard errors.
func TestThrottledAddOutcomes(t *testing.T) {
	client := startCampaignServer(t, &engine.RateLimitConfig{
		MutationsPerSec: 1.0 / 3600,
		Burst:           1,
	})
	if err := client.AddBatch([][]byte{[]byte("first")}); err != nil {
		t.Fatalf("first add: %v", err)
	}
	var throttled *attack.ThrottledError
	if err := client.AddBatch([][]byte{[]byte("second")}); !errors.As(err, &throttled) {
		t.Fatalf("second add past the burst: %v, want *ThrottledError", err)
	}
	if throttled.RetryAfter <= 0 {
		t.Errorf("throttled add carried Retry-After %v", throttled.RetryAfter)
	}
	if present, err := client.Test([]byte("second")); err != nil || present {
		t.Errorf("throttled item present=%v err=%v; a refusal must land nothing", present, err)
	}
	if err := client.AddBatch([][]byte{nil}); err == nil || errors.As(err, &throttled) {
		t.Errorf("empty item: %v, want a hard error", err)
	}
}
