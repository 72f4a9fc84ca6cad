package httpapi

import (
	"bytes"
	"encoding/json"
	"evilbloom/internal/service"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"evilbloom/internal/urlgen"
)

// newTestServer spins up an httptest server over a small store.
func newTestServer(t *testing.T, mode service.Mode) (*httptest.Server, *service.Sharded) {
	t.Helper()
	store, err := service.NewSharded(testConfig(mode, 4))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(adoptServer(t, store))
	t.Cleanup(ts.Close)
	return ts, store
}

// postJSON posts body to path and decodes the response into out, returning
// the status code.
func postJSON(t *testing.T, base, path string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, base, path string, out any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestServerAddTestRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, service.ModeNaive)
	var add addResponse
	if code := postJSON(t, ts.URL, "/v2/filters/default/add", itemRequest{Item: "http://a.example/1"}, &add); code != 200 {
		t.Fatalf("add status %d", code)
	}
	if add.Added != 1 || add.Count != 1 {
		t.Errorf("add response %+v", add)
	}
	var tr testResponse
	postJSON(t, ts.URL, "/v2/filters/default/test", itemRequest{Item: "http://a.example/1"}, &tr)
	if !tr.Present {
		t.Error("inserted item reported absent")
	}
	postJSON(t, ts.URL, "/v2/filters/default/test", itemRequest{Item: "http://a.example/never"}, &tr)
	if tr.Present {
		t.Error("fresh item reported present (possible but wildly unlikely at this fill)")
	}
}

func TestServerBatchEndpoints(t *testing.T) {
	ts, store := newTestServer(t, service.ModeHardened)
	gen := urlgen.New(5)
	items := make([]string, 300)
	for i := range items {
		items[i] = string(gen.Next())
	}
	var add addResponse
	if code := postJSON(t, ts.URL, "/v2/filters/default/add-batch", batchRequest{Items: items}, &add); code != 200 {
		t.Fatalf("add-batch status %d", code)
	}
	if add.Added != len(items) || add.Count != uint64(len(items)) {
		t.Errorf("add-batch response %+v", add)
	}
	probes := append([]string{}, items[:100]...)
	for i := 0; i < 100; i++ {
		probes = append(probes, string(gen.Next()))
	}
	var tb testBatchResponse
	if code := postJSON(t, ts.URL, "/v2/filters/default/test-batch", batchRequest{Items: probes}, &tb); code != 200 {
		t.Fatalf("test-batch status %d", code)
	}
	if len(tb.Present) != len(probes) {
		t.Fatalf("test-batch returned %d results for %d probes", len(tb.Present), len(probes))
	}
	for i, p := range probes {
		if tb.Present[i] != store.Test([]byte(p)) {
			t.Errorf("probe %d disagrees with direct store query", i)
		}
	}
}

func TestServerStatsAndInfo(t *testing.T) {
	ts, _ := newTestServer(t, service.ModeNaive)
	postJSON(t, ts.URL, "/v2/filters/default/add", itemRequest{Item: "x"}, nil)
	var st service.Stats
	if code := getJSON(t, ts.URL, "/v2/filters/default/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Count != 1 || st.Shards != 4 || len(st.PerShard) != 4 {
		t.Errorf("stats %+v", st)
	}
	var info FilterInfo
	if code := getJSON(t, ts.URL, "/v2/filters/default/info", &info); code != 200 {
		t.Fatalf("info status %d", code)
	}
	if info.Mode != "naive" || info.Seed == nil || *info.Seed != 3 {
		t.Errorf("naive info must publish the seed: %+v", info)
	}

	hts, _ := newTestServer(t, service.ModeHardened)
	var hinfo FilterInfo
	if code := getJSON(t, hts.URL, "/v2/filters/default/info", &hinfo); code != 200 {
		t.Fatalf("hardened info status %d", code)
	}
	if hinfo.Mode != "hardened" || hinfo.Seed != nil {
		t.Errorf("hardened info must not leak a seed: %+v", hinfo)
	}
	if !strings.Contains(hinfo.Algorithm, "siphash") {
		t.Errorf("hardened algorithm = %q", hinfo.Algorithm)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, service.ModeNaive)
	cases := []struct {
		name string
		do   func() int
	}{
		{"get on add", func() int { return getJSON(t, ts.URL, "/v2/filters/default/add", nil) }},
		{"post on stats", func() int { return postJSON(t, ts.URL, "/v2/filters/default/stats", itemRequest{Item: "x"}, nil) }},
		{"empty item", func() int { return postJSON(t, ts.URL, "/v2/filters/default/add", itemRequest{}, nil) }},
		{"oversize item", func() int {
			return postJSON(t, ts.URL, "/v2/filters/default/add", itemRequest{Item: strings.Repeat("a", service.MaxItemLen+1)}, nil)
		}},
		{"empty batch", func() int { return postJSON(t, ts.URL, "/v2/filters/default/add-batch", batchRequest{}, nil) }},
		{"oversize batch", func() int {
			items := make([]string, service.MaxBatch+1)
			for i := range items {
				items[i] = "x"
			}
			return postJSON(t, ts.URL, "/v2/filters/default/add-batch", batchRequest{Items: items}, nil)
		}},
		{"unknown field", func() int {
			return postJSON(t, ts.URL, "/v2/filters/default/test", map[string]any{"item": "x", "evil": true}, nil)
		}},
	}
	for _, tc := range cases {
		if code := tc.do(); code < 400 || code >= 500 {
			t.Errorf("%s: status %d, want 4xx", tc.name, code)
		}
	}
}

// A body over service.MaxBodyBytes must be answered with 413 and an error naming
// the limit, not a generic bad-request.
func TestServerRejectsOversizeBody(t *testing.T) {
	ts, _ := newTestServer(t, service.ModeNaive)
	items := make([]string, 0, service.MaxBatch)
	item := strings.Repeat("a", service.MaxItemLen)
	for len(items) < 3000 { // ~12 MB of payload, over the 8 MB cap
		items = append(items, item)
	}
	var errResp errorResponse
	code := postJSON(t, ts.URL, "/v2/filters/default/add-batch", batchRequest{Items: items}, &errResp)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", code)
	}
	if !strings.Contains(errResp.Error, "split the batch") {
		t.Errorf("error %q does not tell the client what to do", errResp.Error)
	}
}

// The acceptance scenario: sustained concurrent batch add/test traffic
// through the HTTP layer, race-detector-clean.
func TestServerConcurrentBatchTraffic(t *testing.T) {
	ts, store := newTestServer(t, service.ModeNaive)
	const workers, rounds, batch = 8, 20, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := urlgen.New(int64(w + 1))
			for r := 0; r < rounds; r++ {
				items := make([]string, batch)
				for i := range items {
					items[i] = string(gen.Next())
				}
				body, _ := json.Marshal(batchRequest{Items: items})
				resp, err := http.Post(ts.URL+"/v2/filters/default/add-batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("add-batch status %d", resp.StatusCode)
					return
				}
				resp, err = http.Post(ts.URL+"/v2/filters/default/test-batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var tb testBatchResponse
				err = json.NewDecoder(resp.Body).Decode(&tb)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				for i, p := range tb.Present {
					if !p {
						errs <- fmt.Errorf("worker %d round %d: item %d absent right after insertion", w, r, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := store.Count(), uint64(workers*rounds*batch); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}
