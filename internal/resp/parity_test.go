package resp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"evilbloom/internal/engine"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/service"
)

// startEngineServer wires a resp.Server over a shared engine on a loopback
// listener, for tests where the RESP plane must share auth and buckets with
// an HTTP codec over the same engine.
func startEngineServer(t *testing.T, eng *engine.Engine) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewEngineServer(eng)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// parityFixture is one engine fronted by both codecs: the cross-plane
// setting every parity assertion runs against.
type parityFixture struct {
	eng  *engine.Engine
	ts   *httptest.Server
	addr string // RESP
}

func newParityFixture(t *testing.T, rate service.RateLimitConfig) *parityFixture {
	t.Helper()
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	if rate.MutationsPerSec > 0 {
		if err := reg.ConfigureRateLimit(rate); err != nil {
			t.Fatal(err)
		}
	}
	eng := engine.New(reg)
	ts := httptest.NewServer(httpapi.NewEngineServer(eng))
	t.Cleanup(ts.Close)
	return &parityFixture{eng: eng, ts: ts, addr: startEngineServer(t, eng)}
}

func (f *parityFixture) createFilter(t *testing.T, name string, variant service.Variant) {
	t.Helper()
	if _, err := f.eng.CreateFilter(name, service.Config{
		Variant:  variant,
		Shards:   1,
		Capacity: 10000,
	}); err != nil {
		t.Fatal(err)
	}
}

// httpOp posts one item operation and returns the status code and decoded
// error message (empty on success).
func (f *parityFixture) httpOp(t *testing.T, bearer, filter, op string, items ...string) (int, string, http.Header) {
	t.Helper()
	var body []byte
	var err error
	if strings.HasSuffix(op, "-batch") {
		body, err = json.Marshal(map[string]any{"items": items})
	} else {
		body, err = json.Marshal(map[string]string{"item": items[0]})
	}
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/v2/filters/"+filter+"/"+op, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil && resp.StatusCode >= 400 {
		t.Fatalf("%s %s: undecodable error body: %v", op, filter, err)
	}
	return resp.StatusCode, e.Error, resp.Header
}

func (f *parityFixture) respClient(t *testing.T) *Client {
	t.Helper()
	cli, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// The same command matrix through both codecs: each row is one engine
// outcome, and both planes must reach it and render it in their own wire
// vocabulary — the refactor's core claim that no enforcement gap exists
// between the planes for an adversary to pick at.
func TestCrossPlaneParity(t *testing.T) {
	f := newParityFixture(t, service.RateLimitConfig{MutationsPerSec: 0.001, Burst: 8})
	f.createFilter(t, "cnt", service.VariantCounting)
	f.createFilter(t, "web", service.VariantBloom)
	f.createFilter(t, "thr-http", service.VariantCounting)
	f.createFilter(t, "thr-resp", service.VariantCounting)
	f.createFilter(t, "mdel", service.VariantCounting)
	cli := f.respClient(t)
	oversized := strings.Repeat("x", service.MaxItemLen+1)

	// Valid mutation: accepted on both planes with the same semantics
	// (newly-added answers true / :1).
	if code, msg, _ := f.httpOp(t, "", "cnt", "add", "item-a"); code != http.StatusOK {
		t.Errorf("HTTP valid add: %d %q", code, msg)
	}
	if r := do(t, cli, "BF.ADD", "cnt", "item-b"); r.Err() != nil || r.Int != 1 {
		t.Errorf("RESP valid add: %+v", r)
	}

	// Oversized item: refused on both planes. HTTP reaches engine
	// validation (400 naming the limit); RESP's framing layer caps bulk
	// strings at the same MaxItemLen, so the refusal is a protocol error —
	// the same bound enforced one layer earlier, costing the connection.
	code, msg, _ := f.httpOp(t, "", "cnt", "add", oversized)
	if code != http.StatusBadRequest || !strings.Contains(msg, fmt.Sprint(service.MaxItemLen)) {
		t.Errorf("HTTP oversized: %d %q", code, msg)
	}
	if r := do(t, cli, "BF.ADD", "cnt", oversized); !strings.HasPrefix(r.Str, "ERR Protocol error") {
		t.Errorf("RESP oversized: %+v", r)
	}
	cli = f.respClient(t) // the protocol error closed the connection

	// Empty item: engine validation on both planes, same message.
	if code, msg, _ := f.httpOp(t, "", "cnt", "add", ""); code != http.StatusBadRequest ||
		!strings.Contains(msg, "empty item") {
		t.Errorf("HTTP empty item: %d %q", code, msg)
	}
	if r := do(t, cli, "BF.ADD", "cnt", ""); r.Str != "ERR empty item" {
		t.Errorf("RESP empty item: %+v", r)
	}

	// Unknown filter: KindNotFound — HTTP 404, RESP -ERR naming the filter.
	if code, msg, _ := f.httpOp(t, "", "ghost", "add", "x"); code != http.StatusNotFound {
		t.Errorf("HTTP unknown filter: %d %q", code, msg)
	}
	if r := do(t, cli, "BF.ADD", "ghost", "x"); r.Err() == nil || !strings.Contains(r.Str, `"ghost"`) {
		t.Errorf("RESP unknown filter: %+v", r)
	}

	// Exhausted budget: KindBusy — HTTP 429 with Retry-After, RESP -BUSY
	// with a parseable retry. Each plane burns its own filter's bucket so
	// the rows stay independent.
	var httpBusy bool
	for i := 0; i < 10; i++ {
		code, msg, hdr := f.httpOp(t, "", "thr-http", "add", fmt.Sprintf("h%d", i))
		if code == http.StatusTooManyRequests {
			httpBusy = true
			if hdr.Get("Retry-After") == "" {
				t.Error("HTTP 429 without Retry-After")
			}
			if !strings.Contains(msg, "mutation budget exhausted") {
				t.Errorf("HTTP busy message: %q", msg)
			}
			break
		}
	}
	if !httpBusy {
		t.Error("HTTP plane never answered 429 past the burst")
	}
	var respBusy bool
	for i := 0; i < 10; i++ {
		r := do(t, cli, "BF.ADD", "thr-resp", fmt.Sprintf("r%d", i))
		if r.IsBusy() {
			respBusy = true
			if _, ok := r.BusyRetrySeconds(); !ok {
				t.Errorf("RESP -BUSY without parseable retry: %q", r.Str)
			}
			break
		}
	}
	if !respBusy {
		t.Error("RESP plane never answered -BUSY past the burst")
	}

	// Capability error: removing from a plain bloom backend — KindCapability
	// — HTTP 405, RESP -WRONGTYPE, the same engine sentinel behind both.
	if code, msg, _ := f.httpOp(t, "", "web", "remove", "x"); code != http.StatusMethodNotAllowed ||
		!strings.Contains(msg, "does not support removal") {
		t.Errorf("HTTP bloom remove: %d %q", code, msg)
	}
	if r := do(t, cli, "CF.DEL", "web", "x"); !strings.HasPrefix(r.Str, "WRONGTYPE ") ||
		!strings.Contains(r.Str, "does not support removal") {
		t.Errorf("RESP bloom remove: %+v", r)
	}

	// Batched remove parity: CF.MDEL is HTTP remove-batch in RESP clothing —
	// same engine command, same per-item answers.
	if code, msg, _ := f.httpOp(t, "", "mdel", "add-batch", "m1", "m2"); code != http.StatusOK {
		t.Errorf("HTTP add-batch: %d %q", code, msg)
	}
	if code, msg, _ := f.httpOp(t, "", "mdel", "remove-batch", "m1", "absent"); code != http.StatusOK {
		t.Errorf("HTTP remove-batch: %d %q", code, msg)
	}
	if r := do(t, cli, "CF.MDEL", "mdel", "m2", "absent"); r.Err() != nil ||
		len(r.Elems) != 2 || r.Elems[0].Int != 1 || r.Elems[1].Int != 0 {
		t.Errorf("CF.MDEL: %+v", r)
	}
}

// One item, three spellings, two planes: JSON's escaped form (what a Go
// client's json.Marshal emits for é and &), raw UTF-8 in JSON, and the raw
// bytes as a RESP bulk string all name the same item. The HTTP codec decodes
// escapes in place in its request buffer, so this pins that what reaches
// the filter is the decoded bytes and nothing of the spelling.
func TestCrossEncodingCrossPlane(t *testing.T) {
	f := newParityFixture(t, service.RateLimitConfig{})
	f.createFilter(t, "web", service.VariantBloom)
	cli := f.respClient(t)
	post := func(op, body string) string {
		t.Helper()
		resp, err := http.Post(f.ts.URL+"/v2/filters/web/"+op, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s", resp.StatusCode, got)
	}

	if got := post("add", `{"item":"caf\u00e9\u0026x"}`); got != "200 {\"added\":1,\"count\":1}\n" {
		t.Fatalf("HTTP add, escaped spelling: %q", got)
	}
	if got := post("test", `{"item":"café&x"}`); got != "200 {\"present\":true}\n" {
		t.Errorf("HTTP test, raw UTF-8: %q", got)
	}
	if r := do(t, cli, "BF.EXISTS", "web", "café&x"); r.Err() != nil || r.Int != 1 {
		t.Errorf("BF.EXISTS with the raw bytes: %+v", r)
	}
	if r := do(t, cli, "BF.EXISTS", "web", `caf\u00e9\u0026x`); r.Err() != nil || r.Int != 0 {
		t.Errorf("BF.EXISTS with the JSON spelling as literal bytes: %+v, want absent", r)
	}

	// And the other way round: added raw over RESP, found escaped over HTTP.
	if r := do(t, cli, "BF.MADD", "web", "naïve<1>", "plain"); r.Err() != nil || len(r.Elems) != 2 {
		t.Fatalf("BF.MADD: %+v", r)
	}
	if got := post("test-batch", `{"items":["na\u00efve\u003c1\u003e","plain","naive<1>"]}`); got != "200 {\"present\":[true,true,false]}\n" {
		t.Errorf("HTTP test-batch, escaped spelling of a RESP add: %q", got)
	}
}

// An authenticated principal's budget follows the credential: one bucket
// spent from both planes, distinct from the NAT host's anonymous bucket.
func TestAuthBucketSharedAcrossPlanes(t *testing.T) {
	f := newParityFixture(t, service.RateLimitConfig{MutationsPerSec: 0.001, Burst: 2})
	if err := f.eng.ConfigureAuth([]string{"alice:s3cret"}); err != nil {
		t.Fatal(err)
	}
	f.createFilter(t, "shared", service.VariantCounting)
	cli := f.respClient(t)

	// Spend 1 of alice's 2-token burst over HTTP...
	if code, msg, _ := f.httpOp(t, "alice:s3cret", "shared", "add", "h1"); code != http.StatusOK {
		t.Fatalf("HTTP bearer add: %d %q", code, msg)
	}
	// ...and 1 over RESP after AUTH: same bucket, now empty.
	if r := do(t, cli, "AUTH", "alice", "s3cret"); r.Err() != nil {
		t.Fatalf("AUTH: %+v", r)
	}
	if r := do(t, cli, "BF.ADD", "shared", "r1"); r.Err() != nil {
		t.Fatalf("RESP auth'd add: %+v", r)
	}
	if r := do(t, cli, "BF.ADD", "shared", "r2"); !r.IsBusy() {
		t.Errorf("alice's cross-plane bucket should be exhausted, got %+v", r)
	}
	if code, _, _ := f.httpOp(t, "alice:s3cret", "shared", "add", "h2"); code != http.StatusTooManyRequests {
		t.Errorf("HTTP bearer add after cross-plane exhaustion: %d, want 429", code)
	}

	// The NAT host's anonymous bucket is untouched: same machine, no
	// credential, full burst.
	if code, msg, _ := f.httpOp(t, "", "shared", "add", "anon1"); code != http.StatusOK {
		t.Errorf("anonymous add sharing alice's host: %d %q", code, msg)
	}
	anon := f.respClient(t)
	if r := do(t, anon, "BF.ADD", "shared", "anon2"); r.Err() != nil {
		t.Errorf("anonymous RESP add sharing alice's host: %+v", r)
	}

	// Wrong credentials are a refusal, not a fall-through to anonymous.
	if code, _, _ := f.httpOp(t, "alice:wrong", "shared", "add", "h3"); code != http.StatusUnauthorized {
		t.Errorf("bad bearer: %d, want 401", code)
	}
	bad := f.respClient(t)
	if r := do(t, bad, "AUTH", "alice", "wrong"); r.Err() == nil {
		t.Error("RESP AUTH with wrong secret succeeded")
	}
	// HELLO AUTH is the RESP3 spelling of the same handshake.
	h3 := f.respClient(t)
	if r := do(t, h3, "HELLO", "3", "AUTH", "alice", "s3cret"); r.Err() != nil {
		t.Fatalf("HELLO AUTH: %+v", r)
	}
	if r := do(t, h3, "BF.ADD", "shared", "r3"); !r.IsBusy() {
		t.Errorf("HELLO AUTH principal should spend alice's exhausted bucket, got %+v", r)
	}
}
