package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"evilbloom/internal/service"
)

// TestV2ItemWireFormatFrozen pins the six /v2 item routes byte for byte —
// body (trailing newline included), Content-Type and Content-Length — the
// way TestV1WireFormatFrozen pins the shim. The goldens are what the
// encoding/json handlers answered to this exact sequence before the routes
// got their own scanner and renderer; if this test breaks, a v2 client
// broke.
func TestV2ItemWireFormatFrozen(t *testing.T) {
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	cfg := testConfig(service.ModeNaive, 4)
	cfg.Variant = service.VariantCounting
	if _, err := reg.Create("g", cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryServer(reg))
	t.Cleanup(ts.Close)

	// The steps run in order: later counts depend on earlier mutations.
	steps := []struct {
		op, body string
		want     string
	}{
		{"add", `{"item":"http://a.example/1"}`, "{\"added\":1,\"count\":1}\n"},
		{"test", `{"item":"http://a.example/1"}`, "{\"present\":true}\n"},
		{"test", `{"item":"http://a.example/ghost"}`, "{\"present\":false}\n"},
		{"add-batch", `{"items":["http://a.example/2","http://a.example/3"]}`, "{\"added\":2,\"count\":3}\n"},
		{"test-batch", `{"items":["http://a.example/1","http://a.example/nope"]}`, "{\"present\":[true,false]}\n"},
		{"remove-batch", `{"items":["http://a.example/1","http://a.example/nope"]}`, "{\"removed\":[true,false],\"count\":2}\n"},
		{"remove", `{"item":"http://a.example/2"}`, "{\"removed\":1,\"count\":1}\n"},
		// One item, two spellings: the escaped form a Go client's
		// json.Marshal emits and the raw UTF-8 form reach the same bits.
		{"add", `{"item":"caf\u00e9\u0026x"}`, "{\"added\":1,\"count\":2}\n"},
		{"test", `{"item":"café&x"}`, "{\"present\":true}\n"},
		{"test-batch", `{"items":["caf\u00e9\u0026x","café&x","cafe&x"]}`, "{\"present\":[true,true,false]}\n"},
		{"remove", `{"item":"café\u0026x"}`, "{\"removed\":1,\"count\":1}\n"},
	}
	// An answer longer than net/http's 2 KiB write buffer: without the
	// explicit Content-Length this one would go out chunked.
	long := make([]string, 600)
	for i := range long {
		long[i] = `"http://a.example/3"`
	}
	steps = append(steps, struct{ op, body, want string }{
		"test-batch", `{"items":[` + strings.Join(long, ",") + `]}`,
		`{"present":[true` + strings.Repeat(",true", len(long)-1) + "]}\n",
	})

	for _, st := range steps {
		resp, err := http.Post(ts.URL+"/v2/filters/g/"+st.op, "application/json", strings.NewReader(st.body))
		if err != nil {
			t.Fatalf("%s: %v", st.op, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading body: %v", st.op, err)
		}
		if resp.StatusCode != http.StatusOK || string(got) != st.want {
			t.Errorf("%s %.60s: wire drift from the v2 format\n got: %d %.80q\nwant: 200 %.80q", st.op, st.body, resp.StatusCode, got, st.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", st.op, ct)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(st.want)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %q, Transfer-Encoding %q; want an explicit length of %d", st.op, cl, resp.TransferEncoding, len(st.want))
		}
	}
}
