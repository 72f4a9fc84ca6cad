package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"evilbloom/internal/engine"
	"evilbloom/internal/service"
)

// TestV2ItemWireFormatFrozen pins the six /v2 item routes byte for byte —
// status, body (trailing newline included), Content-Type, Content-Length and
// Retry-After. The 200 goldens are what the encoding/json handlers answered
// to this exact sequence before the routes got their own scanner and
// renderer; the refusals' goldens are what the single-item routes answered
// while they still had engine commands of their own. If this test breaks, a
// v2 client broke.
func TestV2ItemWireFormatFrozen(t *testing.T) {
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	cfg := testConfig(service.ModeNaive, 4)
	cfg.Variant = service.VariantCounting
	if _, err := reg.Create("g", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("b", testConfig(service.ModeNaive, 4)); err != nil {
		t.Fatal(err)
	}
	// The burst covers exactly the steps' nine mutations on g. The rate is
	// so low that the refusal's retry hint is clamped to a fixed value.
	eng := engine.New(reg)
	if err := eng.ConfigureRateLimit(engine.RateLimitConfig{MutationsPerSec: 1e-12, Burst: 9}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewEngineServer(eng))
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

	check := func(filter, op, body string, wantStatus int, want, wantRetry string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v2/filters/"+filter+"/"+op, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading body: %v", op, err)
		}
		if resp.StatusCode != wantStatus || string(got) != want {
			t.Errorf("%s %.60s: wire drift from the v2 format\n got: %d %.80q\nwant: %d %.80q", op, body, resp.StatusCode, got, wantStatus, want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", op, ct)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %q, Transfer-Encoding %q; want an explicit length of %d", op, cl, resp.TransferEncoding, len(want))
		}
		if ra := resp.Header.Get("Retry-After"); ra != wantRetry {
			t.Errorf("%s %.60s: Retry-After %q, want %q", op, body, ra, wantRetry)
		}
	}
	for _, st := range steps {
		check("g", st.op, st.body, http.StatusOK, st.want, "")
	}

	// Refusals of the single-item routes, after the steps above.
	refusals := []struct {
		filter, op, body string
		status           int
		want, retry      string
	}{
		{"g", "add", `{"item":""}`, 400, "{\"error\":\"empty item\"}\n", ""},
		{"g", "test", `{"item":"` + strings.Repeat("a", service.MaxItemLen+1) + `"}`, 400,
			"{\"error\":\"item exceeds 4096 bytes\"}\n", ""},
		// Refused, and charged: the ninth mutation.
		{"g", "remove", `{"item":"http://a.example/ghost"}`, 409,
			"{\"error\":\"item not in filter; removal refused\"}\n", ""},
		{"b", "remove", `{"item":"http://a.example/3"}`, 405,
			"{\"error\":\"service: filter backend does not support removal (create it with variant=counting)\"}\n", ""},
		{"g", "add", `{"item":"http://a.example/4"}`, 429,
			"{\"error\":\"mutation budget exhausted for filter \\\"g\\\" (1 mutation(s) requested); retry after 2147483648s\"}\n",
			"2147483648"},
	}
	for _, st := range refusals {
		check(st.filter, st.op, st.body, st.status, st.want, st.retry)
	}
}
