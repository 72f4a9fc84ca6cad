package engine_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"evilbloom/internal/engine"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/service"
)

// frozenRateServer serves an empty registry over HTTP behind a rate limit
// whose clock never moves, so token arithmetic is exact.
func frozenRateServer(t *testing.T, cfg engine.RateLimitConfig) *httptest.Server {
	t.Helper()
	reg := service.NewRegistry()
	eng := engine.New(reg)
	frozen := time.Unix(1_000_000, 0)
	engine.SetClock(eng, func() time.Time { return frozen })
	if err := eng.ConfigureRateLimit(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewEngineServer(eng))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	return ts
}

// postRaw posts raw JSON and returns status, the Retry-After header and
// the start of the body.
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

// getJSON decodes the JSON answer to a GET of url into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding response: %v", url, err)
	}
}

// getDigest fetches a filter's digest envelope.
func getDigest(t *testing.T, base, name string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v2/filters/" + name + "/digest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// Every mutation endpoint charges the client's per-filter budget — batches
// per item — reads stay free, exhaustion answers 429 with an exact
// Retry-After, and both the stats aggregate and the clients table attribute
// the outcome. The clock is frozen, so the arithmetic is deterministic.
func TestMutationEndpointsChargePerItem(t *testing.T) {
	ts := frozenRateServer(t, engine.RateLimitConfig{MutationsPerSec: 0.25, Burst: 10})
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
	env := getDigest(t, ts.URL, "f")
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
		RateLimit engine.RateLimitStats `json:"rate_limit"`
	}
	getJSON(t, base+"/stats", &stats)
	if !stats.RateLimit.Enabled || stats.RateLimit.AllowedMutations != 10 {
		t.Errorf("stats rate_limit: %+v (want enabled, 10 allowed)", stats.RateLimit)
	}
	if stats.RateLimit.ThrottledMutations != 7 { // 5-batch + 1 add + 1 push
		t.Errorf("stats throttled %d, want 7", stats.RateLimit.ThrottledMutations)
	}
	var clients engine.ClientsReport
	getJSON(t, base+"/clients", &clients)
	if len(clients.Clients) != 1 {
		t.Fatalf("clients table: %+v", clients)
	}
	cs := clients.Clients[0]
	if cs.Client != "127.0.0.1" || cs.Allowed != 10 || cs.Throttled != 7 {
		t.Errorf("attribution: %+v, want 127.0.0.1 with 10 allowed / 7 throttled", cs)
	}
}
