package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"evilbloom/internal/engine"
	"evilbloom/internal/service"
)

// rateTestServer boots a registry server with a rate limit. Tests whose
// assertions need exact token arithmetic on a frozen clock live in package
// engine, which owns the limiter's clock.
func rateTestServer(t *testing.T, cfg engine.RateLimitConfig) (*httptest.Server, *engine.Engine) {
	t.Helper()
	reg := service.NewRegistry()
	eng := engine.New(reg)
	if err := eng.ConfigureRateLimit(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewEngineServer(eng))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	return ts, eng
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

// End to end: a -trust-proxy server separates header-claimed identities
// into distinct buckets and attributes them by name.
func TestTrustProxyIdentityHTTP(t *testing.T) {
	ts, _ := rateTestServer(t, engine.RateLimitConfig{MutationsPerSec: 0.25, Burst: 2, TrustProxy: true})
	doJSON(t, "PUT", ts.URL+"/v2/filters/f", naiveSpec(1), nil)
	add := func(identity, item string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/filters/f/add",
			strings.NewReader(fmt.Sprintf(`{"item":%q}`, item)))
		if err != nil {
			t.Fatal(err)
		}
		if identity != "" {
			req.Header.Set(engine.ClientIdentityHeader, identity)
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
	var clients engine.ClientsReport
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
	ts, eng := rateTestServer(t, engine.RateLimitConfig{MutationsPerSec: 1000, Burst: 1000})
	doJSON(t, "PUT", ts.URL+"/v2/filters/f", naiveSpec(1), nil)
	postRaw(t, ts.URL+"/v2/filters/f/add", `{"item":"a"}`)
	ref, err := eng.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(ref).RateLimit; st.AllowedMutations != 1 {
		t.Fatalf("pre-delete accounting: %+v", st)
	}
	if err := eng.DeleteFilter("f"); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(ref).RateLimit; st.AllowedMutations != 0 {
		t.Errorf("accounting survived filter deletion: %+v", st)
	}
	// An in-flight charge landing after the drop (a request that resolved
	// the filter before Delete) is allowed without recording — it must not
	// re-create the table and leak ghost counts into a successor filter.
	if _, err := eng.AddBatch(engine.Principal{ID: "straggler"}, ref, [][]byte{[]byte("s")}); err != nil {
		t.Error("straggler mutation on a deleted filter throttled")
	}
	if st := eng.Stats(ref).RateLimit; st.AllowedMutations != 0 || st.Clients != 0 {
		t.Errorf("straggler resurrected the dropped table: %+v", st)
	}
	// A successor filter of the same name starts with a fresh table.
	doJSON(t, "PUT", ts.URL+"/v2/filters/f", naiveSpec(1), nil)
	postRaw(t, ts.URL+"/v2/filters/f/add", `{"item":"b"}`)
	if ref, err = eng.Lookup("f"); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(ref).RateLimit; st.AllowedMutations != 1 {
		t.Errorf("successor filter inherited stale accounting: %+v", st)
	}
}

// A rejected digest push must not cost the pusher budget: the charge is
// taken before the envelope can be parsed, so failures refund it — the
// "malformed requests cost nothing" rule, restored after the fact.
func TestDigestPushRefundsOnFailure(t *testing.T) {
	ts, _ := rateTestServer(t, engine.RateLimitConfig{MutationsPerSec: 0.25, Burst: 2})
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
	var clients engine.ClientsReport
	doJSON(t, "GET", base+"/clients", nil, &clients)
	if len(clients.Clients) != 1 || clients.Clients[0].Allowed != 2 {
		t.Errorf("refund accounting: %+v (want 2 allowed — the failed pushes refunded)", clients.Clients)
	}
}
