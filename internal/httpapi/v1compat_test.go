package httpapi

import (
	"bytes"
	"evilbloom/internal/service"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestV1WireFormatFrozen pins the /v1/* shim to the original single-filter
// server's wire format, byte for byte. The golden strings below were
// captured from the pre-registry server (PR 1) over this exact
// deterministic configuration and request sequence; the shim must keep
// producing them even though it now routes through the registry's default
// filter. If this test breaks, a v1 client broke.
func TestV1WireFormatFrozen(t *testing.T) {
	store, err := service.NewSharded(service.Config{
		Shards:    4,
		Capacity:  20000,
		TargetFPR: 1.0 / 1024,
		Mode:      service.ModeNaive,
		Seed:      3,
		Key:       []byte("0123456789abcdef"),
		RouteKey:  []byte("fedcba9876543210"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store))
	t.Cleanup(ts.Close)

	// The steps run in order: the counters in later goldens depend on the
	// earlier insertions.
	steps := []struct {
		method, path, body string
		wantStatus         int
		wantBody           string
	}{
		{"POST", "/v1/add", `{"item":"http://a.example/1"}`, 200,
			"{\"added\":1,\"count\":1}\n"},
		{"POST", "/v1/test", `{"item":"http://a.example/1"}`, 200,
			"{\"present\":true}\n"},
		{"POST", "/v1/test", `{"item":"http://a.example/ghost"}`, 200,
			"{\"present\":false}\n"},
		{"POST", "/v1/add-batch", `{"items":["http://a.example/2","http://a.example/3"]}`, 200,
			"{\"added\":2,\"count\":3}\n"},
		{"POST", "/v1/test-batch", `{"items":["http://a.example/1","http://a.example/nope"]}`, 200,
			"{\"present\":[true,false]}\n"},
		{"POST", "/v1/add", `{"item":""}`, 400,
			"{\"error\":\"empty item\"}\n"},
		{"GET", "/v1/info", "", 200,
			"{\"mode\":\"naive\",\"shards\":4,\"k\":10,\"shard_bits\":72135,\"algorithm\":\"murmur3-double-hashing\",\"seed\":3}\n"},
		{"GET", "/v1/stats", "", 200,
			"{\"mode\":\"naive\",\"shards\":4,\"k\":10,\"shard_bits\":72135,\"count\":3,\"weight\":30," +
				"\"fill\":0.0001039717196922437,\"estimated_fpr\":1.966078717724468e-39,\"per_shard\":[" +
				// Which shard an item lands in is placement, not wire format:
				// the three items' shards are layout v2's (0, 2, 3; layout v1
				// under this route key put them in 1, 2, 3).
				"{\"shard\":0,\"count\":1,\"weight\":10,\"fill\":0.0001386289595896583,\"estimated_fpr\":2.6214382902992907e-39}," +
				"{\"shard\":1,\"count\":0,\"weight\":0,\"fill\":0,\"estimated_fpr\":0}," +
				"{\"shard\":2,\"count\":1,\"weight\":10,\"fill\":0.0001386289595896583,\"estimated_fpr\":2.6214382902992907e-39}," +
				"{\"shard\":3,\"count\":1,\"weight\":10,\"fill\":0.0001386289595896583,\"estimated_fpr\":2.6214382902992907e-39}]}\n"},
	}
	for _, st := range steps {
		var resp *http.Response
		var err error
		switch st.method {
		case "POST":
			resp, err = http.Post(ts.URL+st.path, "application/json", bytes.NewReader([]byte(st.body)))
		case "GET":
			resp, err = http.Get(ts.URL + st.path)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", st.method, st.path, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: reading body: %v", st.method, st.path, err)
		}
		if resp.StatusCode != st.wantStatus {
			t.Errorf("%s %s: status %d, want %d", st.method, st.path, resp.StatusCode, st.wantStatus)
		}
		if string(got) != st.wantBody {
			t.Errorf("%s %s: wire drift from the v1 format\n got: %q\nwant: %q", st.method, st.path, got, st.wantBody)
		}
	}
}
