package main

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"evilbloom/internal/httpapi"
	"evilbloom/internal/resp"
	"evilbloom/internal/service"
)

// testRegistry holds one small naive filter named "default".
func testRegistry(t *testing.T) *service.Registry {
	t.Helper()
	reg := service.NewRegistry()
	if _, err := reg.Create("default", service.Config{Shards: 2, Capacity: 10_000, TargetFPR: 0.001, Seed: murmurSeed, RouteKey: mustHex(routeKeyHex)}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func someKeys(uni byte, n int) *keyBatch {
	var kb keyBatch
	for i := 0; i < n; i++ {
		kb.add(1, uni, uint64(i))
	}
	return &kb
}

// The harness's RESP encoder and reply scanner against the product's server.
func TestRESPRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := resp.NewServer(testRegistry(t))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background()) //nolint:errcheck // test teardown
		<-served
	}()

	c, err := dial(ln.Addr().String(), false, "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	present, absent := someKeys(uniPreload, 100), someKeys(uniAbsent, 100)

	// Pipelined: an add, a read of what it added, a read of other keys.
	for _, step := range []struct {
		add  bool
		keys [][]byte
	}{{true, present.slices()}, {false, present.slices()}, {false, absent.slices()}} {
		if err := c.send(step.add, step.keys); err != nil {
			t.Fatal(err)
		}
	}
	added, err := c.recv(100, nil)
	if err != nil || len(added) != 100 {
		t.Fatalf("BF.MADD reply: %d verdicts, %v", len(added), err)
	}
	for i, fresh := range added {
		if !fresh {
			t.Errorf("key %d reported already present on first insertion", i)
		}
	}
	got, err := c.recv(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		if !p {
			t.Errorf("inserted key %d reported absent", i)
		}
	}
	got, err = c.recv(100, got[:0])
	if err != nil {
		t.Fatal(err)
	}
	positives := 0
	for _, p := range got {
		if p {
			positives++
		}
	}
	if positives > 5 {
		t.Errorf("%d of 100 never-inserted keys reported present at a 0.1%% design rate", positives)
	}

	// An in-band error leaves the connection in frame.
	c.filter = "nosuch"
	if err := c.send(false, present.slices()); err != nil {
		t.Fatal(err)
	}
	var re *replyError
	if _, err := c.recv(100, nil); !errors.As(err, &re) || !strings.Contains(re.msg, "nosuch") {
		t.Fatalf("unknown filter: got %v, want a replyError naming it", err)
	}
	c.filter = "default"
	if err := c.send(false, present.slices()[:3]); err != nil {
		t.Fatal(err)
	}
	if got, err := c.recv(3, nil); err != nil || len(got) != 3 || !got[0] {
		t.Fatalf("after an error reply: %v, %v", got, err)
	}
	// A reply of the wrong length is a short reply, not a verdict.
	if err := c.send(false, present.slices()[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.recv(4, nil); err == nil || errors.As(err, &re) {
		t.Fatalf("3 verdicts for 4 keys: got %v, want a framing error", err)
	}
}

func TestReadRESPVerdictsSlowPath(t *testing.T) {
	// ":2" is not a membership verdict; the line reader must name it.
	br := bufio.NewReader(strings.NewReader("*2\r\n:1\r\n:2\r\n"))
	if _, err := readRESPVerdicts(br, 2, nil); err == nil || !strings.Contains(err.Error(), ":2") {
		t.Errorf("got %v, want an error naming the element", err)
	}
	// Elements trickling in across reads take the line reader too.
	br = bufio.NewReader(iotestOneByte{strings.NewReader("*3\r\n:1\r\n:0\r\n:1\r\n")})
	got, err := readRESPVerdicts(br, 3, nil)
	if err != nil || len(got) != 3 || !got[0] || got[1] || !got[2] {
		t.Errorf("got %v, %v", got, err)
	}
}

// iotestOneByte yields one byte per Read.
type iotestOneByte struct{ r *strings.Reader }

func (o iotestOneByte) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}

// The raw HTTP client against the product's handler behind a real listener.
func TestHTTPRoundTrip(t *testing.T) {
	reg := testRegistry(t)
	f, err := reg.Get("default")
	if err != nil {
		t.Fatal(err)
	}
	present, absent := someKeys(uniPreload, 64), someKeys(uniAbsent, 64)
	f.Store().AddBatch(present.slices())
	ts := httptest.NewServer(httpapi.NewRegistryServer(reg))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	c, err := dial(addr, true, "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	// Two requests in flight on one connection.
	if err := c.send(false, present.slices()); err != nil {
		t.Fatal(err)
	}
	if err := c.send(false, absent.slices()); err != nil {
		t.Fatal(err)
	}
	got, err := c.recv(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		if !p {
			t.Errorf("inserted key %d reported absent", i)
		}
	}
	if got, err = c.recv(64, got[:0]); err != nil || len(got) != 64 {
		t.Fatalf("second pipelined reply: %d verdicts, %v", len(got), err)
	}
	// A 404 is an in-band error and the connection stays usable.
	c.filter = "nosuch"
	if err := c.send(false, present.slices()); err != nil {
		t.Fatal(err)
	}
	var re *replyError
	if _, err := c.recv(64, nil); !errors.As(err, &re) || !strings.Contains(re.msg, "404") {
		t.Fatalf("unknown filter: got %v, want a replyError with the status", err)
	}
	c.filter = "default"
	if err := c.send(false, present.slices()[:2]); err != nil {
		t.Fatal(err)
	}
	if got, err := c.recv(2, nil); err != nil || len(got) != 2 || !got[1] {
		t.Fatalf("after a 404: %v, %v", got, err)
	}
	if err := c.send(true, present.slices()); err == nil {
		t.Error("the HTTP client sent an add")
	}

	status, body, err := httpDo(addr, "GET", "/v2/filters", "application/json", nil)
	if err != nil || status != 200 || !strings.Contains(string(body), `"default"`) {
		t.Errorf("GET /v2/filters: %d %q %v", status, body, err)
	}
}

func TestReadHTTPResponseFramings(t *testing.T) {
	const chunked = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"a\r\n{\"present\"\r\n8\r\n:[true,f\r\n6\r\nalse]}\r\n0\r\n\r\n" +
		"HTTP/1.1 204 No Content\r\n\r\n" +
		"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}"
	br := bufio.NewReader(strings.NewReader(chunked))
	status, body, err := readHTTPResponse(br, nil)
	if err != nil || status != 200 || string(body) != `{"present":[true,false]}` {
		t.Fatalf("chunked: %d %q %v", status, body, err)
	}
	got, err := parsePresent(body, 2, nil)
	if err != nil || !got[0] || got[1] {
		t.Errorf("parsePresent: %v, %v", got, err)
	}
	if status, body, err = readHTTPResponse(br, body); err != nil || status != 204 || len(body) != 0 {
		t.Errorf("204: %d %q %v", status, body, err)
	}
	if status, body, err = readHTTPResponse(br, body); err != nil || status != 200 || string(body) != "{}" {
		t.Errorf("lower-case content-length: %d %q %v", status, body, err)
	}
	for _, bad := range []string{
		"HTTP/1.1 200 OK\r\n\r\nbody without framing",
		"SPDY/9 200\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
	} {
		if _, _, err := readHTTPResponse(bufio.NewReader(strings.NewReader(bad)), nil); err == nil {
			t.Errorf("readHTTPResponse(%q) succeeded", bad)
		}
	}
}

func TestParsePresent(t *testing.T) {
	for _, tc := range []struct {
		body string
		n    int
		ok   bool
	}{
		{`{"present":[true,false,true]}` + "\n", 3, true},
		{`{"present":[]}`, 0, true},
		{`{"present":[true,false]}`, 3, false}, // short reply
		{`{"present":[true,null]}`, 2, false},
		{`{"error":"no such filter [x]"}`, 1, false},
		{`{"removed":[true]}`, 1, false},
	} {
		got, err := parsePresent([]byte(tc.body), tc.n, nil)
		if (err == nil) != tc.ok || (tc.ok && len(got) != tc.n) {
			t.Errorf("parsePresent(%s, %d) = %v, %v", tc.body, tc.n, got, err)
		}
	}
}
