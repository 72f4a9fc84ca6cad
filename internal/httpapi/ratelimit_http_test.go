package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"evilbloom/internal/service"
)

// manualClock pins a limiter to a settable instant so token arithmetic is
// exact in tests.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Unix(1_000_000, 0)}
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// rateTestServer boots a registry server with a frozen-clock rate limit.
func rateTestServer(t *testing.T, cfg service.RateLimitConfig) (*httptest.Server, *service.Registry, *manualClock) {
	t.Helper()
	reg := service.NewRegistry()
	clock := newManualClock()
	reg.Limiter().SetNow(clock.now)
	if err := reg.ConfigureRateLimit(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryServer(reg))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	return ts, reg, clock
}

// postJSON posts raw JSON and returns status plus the Retry-After header.
func postRaw(t *testing.T, url, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	return resp.StatusCode, resp.Header.Get("Retry-After"), string(buf[:n])
}

// Every mutation endpoint charges the client's per-filter budget — batches
// per item — reads stay free, exhaustion answers 429 with an exact
// Retry-After, and both the stats aggregate and the clients table attribute
// the outcome. The clock is frozen, so the arithmetic is deterministic.
func TestMutationEndpointsChargePerItem(t *testing.T) {
	ts, _, _ := rateTestServer(t, service.RateLimitConfig{MutationsPerSec: 0.25, Burst: 10})
	spec := `{"variant":"counting","shards":1,"shard_bits":256,"hash_count":4,"seed":3}`
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/filters/f", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	base := ts.URL + "/v2/filters/f"

	if code, _, body := postRaw(t, base+"/add", `{"item":"a"}`); code != http.StatusOK {
		t.Fatalf("add: %d %s", code, body) // 9 tokens left
	}
	if code, _, _ := postRaw(t, base+"/add-batch", `{"items":["b","c","d","e"]}`); code != http.StatusOK {
		t.Fatal("add-batch within budget refused") // 5 left
	}
	// Reads are free: they do not drain the bucket however many run.
	for i := 0; i < 50; i++ {
		if code, _, _ := postRaw(t, base+"/test", `{"item":"a"}`); code != http.StatusOK {
			t.Fatal("test charged the mutation budget")
		}
	}
	if code, _, _ := postRaw(t, base+"/test-batch", `{"items":["a","b"]}`); code != http.StatusOK {
		t.Fatal("test-batch charged the mutation budget")
	}
	if code, _, _ := postRaw(t, base+"/remove", `{"item":"a"}`); code != http.StatusOK {
		t.Fatal("remove within budget refused") // 4 left
	}
	// A refused removal (409) still spent its charge: the attempt was a
	// mutation request, and §4.3 probing is exactly what gets accounted.
	if code, _, _ := postRaw(t, base+"/remove", `{"item":"never-inserted-xyz"}`); code != http.StatusConflict {
		t.Fatal("removal of absent item not refused") // 3 left
	}
	code, retry, body := postRaw(t, base+"/add-batch", `{"items":["f","g","h","i","j"]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("5-item batch on 3 tokens: %d %s", code, body)
	}
	// Deficit 2 at 0.25/s = 8s, exactly.
	if retry != "8" {
		t.Errorf("Retry-After %q, want 8", retry)
	}
	for i := 0; i < 3; i++ {
		if code, _, _ := postRaw(t, base+"/add", fmt.Sprintf(`{"item":"k%d"}`, i)); code != http.StatusOK {
			t.Fatal("remaining budget refused") // 0 left
		}
	}
	if code, retry, _ = postRaw(t, base+"/add", `{"item":"z"}`); code != http.StatusTooManyRequests || retry != "4" {
		t.Fatalf("spent bucket: status %d Retry-After %q, want 429/4", code, retry)
	}
	// Malformed requests cost nothing and never earn 429.
	if code, _, _ := postRaw(t, base+"/add", `{"item":""}`); code != http.StatusBadRequest {
		t.Error("empty item not rejected as 400")
	}

	// A digest push is a routing-state mutation: with the bucket empty it
	// answers 429 too.
	env, _, _ := getDigest(t, ts.URL, "f", "")
	resp, err = http.Post(base+"/digest?peer=sib", "application/octet-stream", strings.NewReader(string(env)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("digest push on spent bucket: status %d, want 429", resp.StatusCode)
	}

	// Stats carry the aggregate; the clients endpoint attributes it.
	var stats struct {
		RateLimit service.RateLimitStats `json:"rate_limit"`
	}
	doJSON(t, "GET", base+"/stats", nil, &stats)
	if !stats.RateLimit.Enabled || stats.RateLimit.AllowedMutations != 10 {
		t.Errorf("stats rate_limit: %+v (want enabled, 10 allowed)", stats.RateLimit)
	}
	if stats.RateLimit.ThrottledMutations != 7 { // 5-batch + 1 add + 1 push
		t.Errorf("stats throttled %d, want 7", stats.RateLimit.ThrottledMutations)
	}
	var clients service.ClientsReport
	doJSON(t, "GET", base+"/clients", nil, &clients)
	if len(clients.Clients) != 1 {
		t.Fatalf("clients table: %+v", clients)
	}
	cs := clients.Clients[0]
	if cs.Client != "127.0.0.1" || cs.Allowed != 10 || cs.Throttled != 7 {
		t.Errorf("attribution: %+v, want 127.0.0.1 with 10 allowed / 7 throttled", cs)
	}
}

// The /v1 shim's mutations charge the default filter's budgets — the
// legacy surface is not a side door around rate limiting — and both API
// generations spend from the same bucket.
func TestV1ShimSharesDefaultBudget(t *testing.T) {
	store, err := service.NewSharded(service.Config{Shards: 1, ShardBits: 256, HashCount: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := adoptServer(t, store)
	clock := newManualClock()
	srv.Registry().Limiter().SetNow(clock.now)
	if err := srv.Registry().ConfigureRateLimit(service.RateLimitConfig{MutationsPerSec: 0.5, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if code, _, _ := postRaw(t, ts.URL+"/v1/add", `{"item":"a"}`); code != http.StatusOK {
		t.Fatal("v1 add within budget refused")
	}
	if code, _, _ := postRaw(t, ts.URL+"/v2/filters/default/add", `{"item":"b"}`); code != http.StatusOK {
		t.Fatal("v2 default add within budget refused")
	}
	code, retry, _ := postRaw(t, ts.URL+"/v1/add", `{"item":"c"}`)
	if code != http.StatusTooManyRequests || retry != "2" {
		t.Fatalf("v1 add on a bucket spent across generations: %d retry %q, want 429/2", code, retry)
	}
	// Reads on the shim stay free.
	if code, _, _ := postRaw(t, ts.URL+"/v1/test", `{"item":"a"}`); code != http.StatusOK {
		t.Error("v1 test charged")
	}
	var clients service.ClientsReport
	doJSON(t, "GET", ts.URL+"/v2/filters/default/clients", nil, &clients)
	if len(clients.Clients) != 1 || clients.Clients[0].Allowed != 2 || clients.Clients[0].Throttled != 1 {
		t.Errorf("cross-generation attribution: %+v", clients.Clients)
	}
}

// End to end: a -trust-proxy server separates header-claimed identities
// into distinct buckets and attributes them by name.
func TestTrustProxyIdentityHTTP(t *testing.T) {
	ts, _, _ := rateTestServer(t, service.RateLimitConfig{MutationsPerSec: 0.25, Burst: 2, TrustProxy: true})
	doJSON(t, "PUT", ts.URL+"/v2/filters/f", naiveSpec(1), nil)
	add := func(identity, item string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/filters/f/add",
			strings.NewReader(fmt.Sprintf(`{"item":%q}`, item)))
		if err != nil {
			t.Fatal(err)
		}
		if identity != "" {
			req.Header.Set(service.ClientIdentityHeader, identity)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 2; i++ {
		if code := add("mallory", fmt.Sprintf("m%d", i)); code != http.StatusOK {
			t.Fatal("mallory's burst refused")
		}
	}
	if code := add("mallory", "m2"); code != http.StatusTooManyRequests {
		t.Error("mallory's third add not throttled")
	}
	// A different claimed identity — and the bare transport address — still
	// have their own budgets.
	if code := add("alice", "a0"); code != http.StatusOK {
		t.Error("alice throttled by mallory's spending")
	}
	if code := add("", "r0"); code != http.StatusOK {
		t.Error("transport-identity client throttled by header identities")
	}
	var clients service.ClientsReport
	doJSON(t, "GET", ts.URL+"/v2/filters/f/clients", nil, &clients)
	if len(clients.Clients) != 3 {
		t.Fatalf("identities tracked: %+v", clients.Clients)
	}
	// Most-throttled first: the offender tops the table.
	if clients.Clients[0].Client != "mallory" || clients.Clients[0].Throttled != 1 {
		t.Errorf("offender not named first: %+v", clients.Clients)
	}
}

// Deleting a filter discards its accounting; a successor filter under the
// same name starts clean, and a mutation racing the delete cannot
// resurrect the dropped table.
func TestLimiterDroppedOnDelete(t *testing.T) {
	ts, reg, _ := rateTestServer(t, service.RateLimitConfig{MutationsPerSec: 1000, Burst: 1000})
	doJSON(t, "PUT", ts.URL+"/v2/filters/f", naiveSpec(1), nil)
	postRaw(t, ts.URL+"/v2/filters/f/add", `{"item":"a"}`)
	if st := reg.Limiter().FilterStats("f"); st.AllowedMutations != 1 {
		t.Fatalf("pre-delete accounting: %+v", st)
	}
	if err := reg.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if st := reg.Limiter().FilterStats("f"); st.AllowedMutations != 0 {
		t.Errorf("accounting survived filter deletion: %+v", st)
	}
	// An in-flight charge landing after the drop (a request that resolved
	// the filter before Delete) is allowed without recording — it must not
	// re-create the table and leak ghost counts into a successor filter.
	if ok, _ := reg.Limiter().Allow("f", "straggler", 1); !ok {
		t.Error("straggler mutation on a deleted filter throttled")
	}
	if st := reg.Limiter().FilterStats("f"); st.AllowedMutations != 0 || st.Clients != 0 {
		t.Errorf("straggler resurrected the dropped table: %+v", st)
	}
	// A successor filter of the same name starts with a fresh table.
	doJSON(t, "PUT", ts.URL+"/v2/filters/f", naiveSpec(1), nil)
	postRaw(t, ts.URL+"/v2/filters/f/add", `{"item":"b"}`)
	if st := reg.Limiter().FilterStats("f"); st.AllowedMutations != 1 {
		t.Errorf("successor filter inherited stale accounting: %+v", st)
	}
}

// A rejected digest push must not cost the pusher budget: the charge is
// taken before the envelope can be parsed, so failures refund it — the
// "malformed requests cost nothing" rule, restored after the fact.
func TestDigestPushRefundsOnFailure(t *testing.T) {
	ts, _, _ := rateTestServer(t, service.RateLimitConfig{MutationsPerSec: 0.25, Burst: 2})
	doJSON(t, "PUT", ts.URL+"/v2/filters/f", naiveSpec(1), nil)
	base := ts.URL + "/v2/filters/f"
	// Two corrupt pushes against a burst of 2: each answers 400 and hands
	// its charge back.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/digest?peer=sib", "application/octet-stream", strings.NewReader("garbage"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("corrupt push: status %d, want 400", resp.StatusCode)
		}
	}
	// The full burst is still available for real mutations.
	for i := 0; i < 2; i++ {
		if code, _, _ := postRaw(t, base+"/add", fmt.Sprintf(`{"item":"a%d"}`, i)); code != http.StatusOK {
			t.Fatalf("add %d refused: corrupt pushes consumed the budget", i)
		}
	}
	var clients service.ClientsReport
	doJSON(t, "GET", base+"/clients", nil, &clients)
	if len(clients.Clients) != 1 || clients.Clients[0].Allowed != 2 {
		t.Errorf("refund accounting: %+v (want 2 allowed — the failed pushes refunded)", clients.Clients)
	}
}
