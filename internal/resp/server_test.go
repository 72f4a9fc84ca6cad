package resp

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"evilbloom/internal/core"
	"evilbloom/internal/engine"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/service"
)

// startServer wires a resp.Server over reg on a loopback listener and
// returns its address. Cleanup shuts the server down and asserts Serve
// returned ErrServerClosed.
func startServer(t *testing.T, reg *service.Registry) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
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

func newTestRegistry(t *testing.T) *service.Registry {
	t.Helper()
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() })
	return reg
}

// do sends one command and returns its reply; transport failure is fatal.
func do(t *testing.T, cli *Client, args ...string) *Reply {
	t.Helper()
	reply, err := cli.Do(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return reply
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	cli, err := DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// The full command surface against a live server: creation, single and
// batched mutation with newly-added semantics, probes, introspection,
// protocol negotiation, and the counting filter's remove path.
func TestServerCommandSurface(t *testing.T) {
	reg := newTestRegistry(t)
	addr := startServer(t, reg)
	cli := dialTest(t, addr)

	if r := do(t, cli, "PING"); r.Type != '+' || r.Str != "PONG" {
		t.Fatalf("PING = %+v", r)
	}
	if r := do(t, cli, "PING", "hey"); r.Str != "hey" {
		t.Fatalf("PING hey = %+v", r)
	}
	if r := do(t, cli, "ECHO", "payload"); r.Str != "payload" {
		t.Fatalf("ECHO = %+v", r)
	}

	// BF.RESERVE with pinned geometry; re-reserving the same name errors.
	if r := do(t, cli, "BF.RESERVE", "web", "0", "0", "SHARDS", "1", "SHARDBITS", "4096", "HASHES", "4", "SEED", "7"); r.Str != "OK" {
		t.Fatalf("BF.RESERVE = %+v", r)
	}
	if r := do(t, cli, "BF.RESERVE", "web", "0", "0"); r.Err() == nil {
		t.Fatalf("duplicate BF.RESERVE succeeded: %+v", r)
	}

	// BF.ADD: 1 on first insert, 0 on repeat.
	if r := do(t, cli, "BF.ADD", "web", "http://a.example/"); r.Int != 1 {
		t.Fatalf("first BF.ADD = %+v", r)
	}
	if r := do(t, cli, "BF.ADD", "web", "http://a.example/"); r.Int != 0 {
		t.Fatalf("repeat BF.ADD = %+v", r)
	}

	// BF.MADD answers per-item newly-added flags in order.
	r := do(t, cli, "BF.MADD", "web", "http://a.example/", "http://b.example/", "http://c.example/")
	if r.Type != '*' || len(r.Elems) != 3 {
		t.Fatalf("BF.MADD = %+v", r)
	}
	if r.Elems[0].Int != 0 || r.Elems[1].Int != 1 || r.Elems[2].Int != 1 {
		t.Fatalf("BF.MADD flags = %d %d %d, want 0 1 1", r.Elems[0].Int, r.Elems[1].Int, r.Elems[2].Int)
	}

	if r := do(t, cli, "BF.EXISTS", "web", "http://b.example/"); r.Int != 1 {
		t.Fatalf("BF.EXISTS present = %+v", r)
	}
	r = do(t, cli, "BF.MEXISTS", "web", "http://b.example/", "definitely-absent-item")
	if len(r.Elems) != 2 || r.Elems[0].Int != 1 || r.Elems[1].Int != 0 {
		t.Fatalf("BF.MEXISTS = %+v", r)
	}

	// BF.INFO on a naive filter publishes geometry, count, and the seed.
	info := infoMap(t, do(t, cli, "BF.INFO", "web"))
	for k, want := range map[string]string{
		// count tallies the adds that changed the filter — those answered 1
		// (3: the first BF.ADD and two MADD items) — not every add performed.
		"name": "web", "mode": "naive", "shards": "1", "k": "4", "shard_bits": "4096", "count": "3", "seed": "7",
	} {
		if info[k] != want {
			t.Fatalf("BF.INFO %s = %q, want %q (all: %v)", k, info[k], want, info)
		}
	}

	// HELLO negotiates protocol; bad versions answer -NOPROTO.
	if r := do(t, cli, "HELLO", "3"); r.Err() != nil {
		t.Fatalf("HELLO 3 = %+v", r)
	}
	if r := do(t, cli, "HELLO", "9"); r.Err() == nil || !strings.HasPrefix(r.Str, "NOPROTO") {
		t.Fatalf("HELLO 9 = %+v, want NOPROTO", r)
	}
	if r := do(t, cli, "COMMAND", "COUNT"); r.Type != ':' || r.Int < 1 {
		t.Fatalf("COMMAND COUNT = %+v", r)
	}
	if r := do(t, cli, "COMMAND", "DOCS"); r.Type != '*' || len(r.Elems) != 0 {
		t.Fatalf("COMMAND DOCS = %+v, want empty array", r)
	}

	// CF.DEL on a counting filter removes; on the bloom filter it answers
	// the capability error, mirroring the HTTP plane's 405.
	if r := do(t, cli, "BF.RESERVE", "cnt", "0", "0", "VARIANT", "counting", "SHARDS", "1"); r.Str != "OK" {
		t.Fatalf("counting BF.RESERVE = %+v", r)
	}
	do(t, cli, "BF.ADD", "cnt", "x")
	if r := do(t, cli, "CF.DEL", "cnt", "x"); r.Int != 1 {
		t.Fatalf("CF.DEL present = %+v", r)
	}
	if r := do(t, cli, "BF.EXISTS", "cnt", "x"); r.Int != 0 {
		t.Fatalf("after CF.DEL item still present: %+v", r)
	}
	if r := do(t, cli, "CF.DEL", "web", "http://a.example/"); r.Err() == nil {
		t.Fatalf("CF.DEL on bloom filter succeeded: %+v", r)
	}

	// QUIT answers OK and the server closes the connection.
	if r := do(t, cli, "QUIT"); r.Str != "OK" {
		t.Fatalf("QUIT = %+v", r)
	}
	cli.Send("PING")
	if err := cli.Flush(); err == nil {
		if _, err := cli.Receive(); err == nil {
			t.Fatal("connection alive after QUIT")
		}
	}
}

// infoMap folds BF.INFO's flat pairs into a map, stringifying values.
func infoMap(t *testing.T, r *Reply) map[string]string {
	t.Helper()
	if r.Err() != nil || len(r.Elems)%2 != 0 {
		t.Fatalf("BF.INFO = %+v", r)
	}
	m := make(map[string]string, len(r.Elems)/2)
	for i := 0; i+1 < len(r.Elems); i += 2 {
		v := r.Elems[i+1]
		if v.Type == ':' {
			m[r.Elems[i].Str] = fmt.Sprint(v.Int)
		} else {
			m[r.Elems[i].Str] = v.Str
		}
	}
	return m
}

// Every malformed command must answer an in-band error reply and leave the
// connection usable for the next command.
func TestServerErrorReplies(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Create("web", service.Config{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, reg)
	cli := dialTest(t, addr)

	cases := []struct {
		name string
		cmd  []string
		want string // required substring of the error reply
	}{
		{"unknown command", []string{"GET", "key"}, "unknown command"},
		{"unknown filter", []string{"BF.ADD", "ghost", "item"}, `no such filter "ghost"`},
		{"add arity", []string{"BF.ADD", "web"}, "wrong number of arguments"},
		{"add extra args", []string{"BF.ADD", "web", "a", "b"}, "wrong number of arguments"},
		{"exists arity", []string{"BF.EXISTS", "web"}, "wrong number of arguments"},
		{"info arity", []string{"BF.INFO"}, "wrong number of arguments"},
		{"reserve arity", []string{"BF.RESERVE", "x"}, "wrong number of arguments"},
		{"reserve bad rate", []string{"BF.RESERVE", "x", "1.5", "0"}, "bad error rate"},
		{"reserve bad capacity", []string{"BF.RESERVE", "x", "0", "-3"}, "bad capacity"},
		{"reserve scaling knob", []string{"BF.RESERVE", "x", "0", "0", "EXPANSION", "2"}, "scaling filters are not supported"},
		{"reserve unknown option", []string{"BF.RESERVE", "x", "0", "0", "WAT", "1"}, "unknown BF.RESERVE option"},
		{"empty item", []string{"BF.ADD", "web", ""}, "empty item"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := do(t, cli, tc.cmd...)
			if r.Err() == nil {
				t.Fatalf("%v succeeded: %+v", tc.cmd, r)
			}
			if !strings.Contains(r.Str, tc.want) {
				t.Fatalf("error = %q, want substring %q", r.Str, tc.want)
			}
		})
	}
	// The connection survived all of it.
	if r := do(t, cli, "PING"); r.Str != "PONG" {
		t.Fatalf("PING after errors = %+v", r)
	}
	// A BF.MADD refused for one bad item must not have inserted its other
	// items either (the whole command is rejected before staging).
	do(t, cli, "BF.MADD", "web", "kept")
	r := do(t, cli, "BF.MADD", "web", "partial", "")
	if r.Err() == nil {
		t.Fatalf("batch with empty item accepted: %+v", r)
	}
	if r := do(t, cli, "BF.EXISTS", "web", "partial"); r.Int != 0 {
		t.Fatal("refused command inserted an item before failing")
	}
}

// A deep pipeline of interleaved command kinds, flushed once, must come
// back as one reply per command, in order — the run-batching optimization
// is not allowed to reorder or merge replies.
func TestServerPipelineOrder(t *testing.T) {
	reg := newTestRegistry(t)
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Create(name, service.Config{Shards: 1}); err != nil {
			t.Fatal(err)
		}
	}
	addr := startServer(t, reg)
	cli := dialTest(t, addr)

	const n = 300
	type expect func(r *Reply) error
	var expects []expect
	intIs := func(want int64, what string) expect {
		return func(r *Reply) error {
			if r.Type != ':' || r.Int != want {
				return fmt.Errorf("%s = %+v, want :%d", what, r, want)
			}
			return nil
		}
	}
	for i := 0; i < n; i++ {
		item := fmt.Sprintf("item-%04d", i)
		filter := "a"
		if i%3 == 0 {
			filter = "b" // force filter switches mid-run
		}
		switch i % 5 {
		case 0, 1: // add a fresh item: newly added
			cli.Send("BF.ADD", filter, item)
			expects = append(expects, intIs(1, "BF.ADD "+item))
		case 2: // probe the item just added in this same pipeline
			prev := fmt.Sprintf("item-%04d", i-1)
			cli.Send("BF.EXISTS", filter, prev)
			f := filter
			expects = append(expects, func(r *Reply) error {
				if r.Type != ':' {
					return fmt.Errorf("BF.EXISTS %s/%s = %+v", f, prev, r)
				}
				return nil // presence depends on filter routing; type is the contract
			})
		case 3: // a control command splits the run
			cli.Send("PING")
			expects = append(expects, func(r *Reply) error {
				if r.Str != "PONG" {
					return fmt.Errorf("PING = %+v", r)
				}
				return nil
			})
		case 4: // probe something never inserted
			cli.Send("BF.EXISTS", filter, "never-inserted-"+item)
			expects = append(expects, intIs(0, "absent probe"))
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, exp := range expects {
		r, err := cli.Receive()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if err := exp(r); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	if cli.Pending() != 0 {
		t.Fatalf("%d replies unaccounted for", cli.Pending())
	}
}

// A pipelined add run answers exactly what its commands answer one at a
// time: novelty is read per item under the shard lock that inserts it, so a
// duplicate later in the run — the next command's, or its own command's —
// reports 0, as RedisBloom does.
func TestServerRunDuplicateSemantics(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Create("web", service.Config{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, reg)
	cli := dialTest(t, addr)

	cli.Send("BF.ADD", "web", "dup")
	cli.Send("BF.ADD", "web", "dup")
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	first, err := cli.Receive()
	if err != nil {
		t.Fatal(err)
	}
	second, err := cli.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if first.Int != 1 || second.Int != 0 {
		t.Fatalf("pipelined duplicates = %d, %d; want 1, 0", first.Int, second.Int)
	}
	r := do(t, cli, "BF.MADD", "web", "a", "a", "b")
	var got []int64
	for _, e := range r.Elems {
		got = append(got, e.Int)
	}
	if fmt.Sprint(got) != "[1 0 1]" {
		t.Fatalf("BF.MADD web a a b = %v, want [1 0 1]", got)
	}

	// The same command sequence gets byte-identical replies whether it
	// arrives in one write, where consecutive adds collapse into runs, or
	// one command a connection. Two more servers over identically
	// configured naive filters (public seed: the same keys land on the same
	// positions) take the two sides.
	seq := [][]string{
		{"BF.ADD", "web", "dup"},
		{"BF.ADD", "web", "dup"},
		{"BF.MADD", "web", "a", "a", "b"},
		{"BF.ADD", "web", "b"},
		{"BF.MADD", "web", "c", "dup", "c", "d"},
		{"BF.MEXISTS", "web", "a", "c", "never"},
		{"BF.ADD", "web", "never"},
		{"BF.MADD", "web", "e", "never", "e"},
		{"BF.ADD", "web", "e"},
	}
	serve := func() string {
		reg := newTestRegistry(t)
		if _, err := reg.Create("web", service.Config{Shards: 8}); err != nil {
			t.Fatal(err)
		}
		return startServer(t, reg)
	}
	var whole, oneByOne strings.Builder
	for _, args := range seq {
		whole.WriteString(respCommand(args...))
	}
	pipelined := exchange(t, serve(), whole.String())
	single := serve()
	for _, args := range seq {
		oneByOne.WriteString(exchange(t, single, respCommand(args...)))
	}
	if pipelined != oneByOne.String() {
		t.Fatalf("pipelined replies differ from one-at-a-time replies:\n got %q\nwant %q", pipelined, oneByOne.String())
	}
	if want := ":1\r\n:0\r\n"; !strings.HasPrefix(pipelined, want) {
		t.Fatalf("replies %q do not start with the duplicate pair %q", pipelined, want)
	}
}

// respCommand encodes args as one RESP array command.
func respCommand(args ...string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&sb, "$%d\r\n%s\r\n", len(a), a)
	}
	return sb.String()
}

// The satellite regression: HTTP and RESP mutations spend the SAME
// per-(filter, client) bucket. Exhausting the budget over the HTTP plane
// must surface as -BUSY (with parseable retry seconds) on the RESP plane,
// because both identify the client by RemoteAddr host (127.0.0.1 here).
func TestCrossPlaneRateLimit(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Create(service.DefaultFilterName, service.Config{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	const burst = 5
	eng := engine.New(reg)
	if err := eng.ConfigureRateLimit(engine.RateLimitConfig{MutationsPerSec: 0.1, Burst: burst}); err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(httpapi.NewEngineServer(eng))
	defer httpSrv.Close()
	respAddr := startEngineServer(t, eng)
	cli := dialTest(t, respAddr)

	// Spend the whole burst over HTTP.
	for i := 0; i < burst; i++ {
		body := fmt.Sprintf(`{"item": "http-%d"}`, i)
		res, err := http.Post(httpSrv.URL+"/v1/add", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("HTTP add %d answered %d, want 200 within burst", i, res.StatusCode)
		}
	}
	// The next HTTP mutation is throttled...
	res, err := http.Post(httpSrv.URL+"/v1/add", "application/json", strings.NewReader(`{"item": "over"}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP over-budget answered %d, want 429", res.StatusCode)
	}
	// ...and so is the RESP mutation: same bucket, no side door.
	r := do(t, cli, "BF.ADD", service.DefaultFilterName, "resp-item")
	if !r.IsBusy() {
		t.Fatalf("RESP add after HTTP exhaustion = %+v, want -BUSY", r)
	}
	secs, ok := r.BusyRetrySeconds()
	if !ok || secs < 1 {
		t.Fatalf("BusyRetrySeconds = %d, %v; want a positive retry hint", secs, ok)
	}
	// The refused mutation was not applied.
	if reply := do(t, cli, "BF.EXISTS", service.DefaultFilterName, "resp-item"); reply.Int != 0 {
		t.Fatal("throttled RESP mutation was applied")
	}
	// Probes are free: reads still flow while the bucket is empty.
	if reply := do(t, cli, "BF.EXISTS", service.DefaultFilterName, "http-0"); reply.Int != 1 {
		t.Fatalf("read path throttled: %+v", reply)
	}
}

// The converse direction: a pipelined RESP burst drains the bucket and the
// HTTP plane sees 429. Also pins per-command charging — a BF.MADD charges
// per item, exactly like an HTTP batch.
func TestCrossPlaneRateLimitRESPFirst(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Create(service.DefaultFilterName, service.Config{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(reg)
	if err := eng.ConfigureRateLimit(engine.RateLimitConfig{MutationsPerSec: 0.1, Burst: 4}); err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(httpapi.NewEngineServer(eng))
	defer httpSrv.Close()
	respAddr := startEngineServer(t, eng)
	cli := dialTest(t, respAddr)

	// One 4-item BF.MADD spends the whole burst in a single charge.
	r := do(t, cli, "BF.MADD", service.DefaultFilterName, "a", "b", "c", "d")
	if r.Err() != nil {
		t.Fatalf("BF.MADD within burst = %+v", r)
	}
	// The next RESP mutation is busy; HTTP sees 429 off the same bucket.
	if r := do(t, cli, "BF.ADD", service.DefaultFilterName, "e"); !r.IsBusy() {
		t.Fatalf("RESP over-budget = %+v, want -BUSY", r)
	}
	res, err := http.Post(httpSrv.URL+"/v1/add", "application/json", strings.NewReader(`{"item": "f"}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP after RESP exhaustion answered %d, want 429", res.StatusCode)
	}
}

// Protocol-level garbage gets one -ERR Protocol error reply, then the
// server hangs up — framing is unrecoverable.
func TestServerProtocolErrorCloses(t *testing.T) {
	reg := newTestRegistry(t)
	addr := startServer(t, reg)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("*abc\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	var got []byte
	for {
		n, err := conn.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break // EOF: server closed after the error reply
		}
	}
	if !bytes.HasPrefix(got, []byte("-ERR Protocol error")) {
		t.Fatalf("reply = %q, want -ERR Protocol error...", got)
	}
}

// Shutdown with live idle connections must complete promptly: blocked
// readers are nudged off their read and the wait group drains.
func TestServerShutdownDrainsIdleConns(t *testing.T) {
	reg := newTestRegistry(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	cli, err := DialTimeout(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if reply, err := cli.Do("PING"); err != nil || reply.Str != "PONG" {
		t.Fatalf("PING = %+v, %v", reply, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Shutdown of an idle connection took %v", d)
	}
	if err := <-serveErr; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// New connections are refused after shutdown.
	if _, err := DialTimeout(ln.Addr().String(), time.Second); err == nil {
		t.Fatal("dial succeeded after Shutdown")
	}
}

// BF.RESERVE parses OVERFLOW with core's one policy parser, and a counting
// filter reserved without it saturates: seventeen copies of one item in a
// single BF.MADD — one more than a 4-bit counter holds — leave it present,
// and only the first copy is newly added (under wrap the sixteenth erases
// it, so the seventeenth would be new again).
func TestReserveOverflowPolicy(t *testing.T) {
	reg := newTestRegistry(t)
	cli := dialTest(t, startServer(t, reg))
	reserve := func(name string, opts ...string) *Reply {
		args := []string{"BF.RESERVE", name, "0", "0", "VARIANT", "counting", "SHARDS", "1", "SHARDBITS", "4096", "HASHES", "4"}
		return do(t, cli, append(args, opts...)...)
	}
	for name, want := range map[string]core.OverflowPolicy{"default": core.Saturate, "saturate": core.Saturate, "wrap": core.Wrap} {
		var opts []string
		if name != "default" {
			opts = []string{"OVERFLOW", name}
		}
		if r := reserve(name, opts...); r.Err() != nil {
			t.Fatalf("BF.RESERVE %s %v: %v", name, opts, r.Err())
		}
		f, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Store().OverflowPolicy(); got != want {
			t.Errorf("BF.RESERVE %v reserved a %v filter, want %v", opts, got, want)
		}
	}
	if r := reserve("bogus", "OVERFLOW", "bogus"); r.Err() == nil || !strings.Contains(r.Str, "unknown overflow policy") {
		t.Fatalf("OVERFLOW bogus: %+v, want an unknown-policy error", r)
	}
	if _, err := reg.Get("bogus"); err == nil {
		t.Error("a refused BF.RESERVE created its filter")
	}

	madd := []string{"BF.MADD", "default"}
	for i := 0; i < 17; i++ {
		madd = append(madd, "x")
	}
	r := do(t, cli, madd...)
	if len(r.Elems) != 17 {
		t.Fatalf("BF.MADD of 17 items answered %+v", r)
	}
	for i, e := range r.Elems {
		want := int64(0)
		if i == 0 {
			want = 1
		}
		if e.Int != want {
			t.Errorf("BF.MADD reply %d = %d, want %d: only the first copy of x is new", i, e.Int, want)
		}
	}
	if r := do(t, cli, "BF.EXISTS", "default", "x"); r.Int != 1 {
		t.Fatalf("BF.EXISTS after 17 adds of x = %+v, want 1", r)
	}
}
