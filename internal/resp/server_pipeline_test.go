package resp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

// exchange writes request in one piece, half-closes, and returns everything
// the server answers before it hangs up.
func exchange(t *testing.T, addr, request string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, request); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading the reply to %q: %v (got %q)", request, err, reply)
	}
	return string(reply)
}

// Whole commands in front of a bad frame, or of a frame the peer never
// finishes, are executed and answered; the error (or the close) comes after
// their replies, not instead of them.
func TestWholeCommandsBeforeBadFrameAreAnswered(t *testing.T) {
	reg := newTestRegistry(t)
	addr := startServer(t, reg)
	cli := dialTest(t, addr)
	if r := do(t, cli, "BF.RESERVE", "f", "0", "0", "SHARDS", "1", "SHARDBITS", "4096", "HASHES", "4"); r.Str != "OK" {
		t.Fatalf("BF.RESERVE = %+v", r)
	}
	const badFrame = "-ERR Protocol error: invalid multibulk length\r\n"
	cases := []struct {
		name, request, want string
	}{
		{"inline and array, then garbage",
			"PING\r\n*1\r\n$4\r\nPING\r\n*x\r\n", "+PONG\r\n+PONG\r\n" + badFrame},
		{"then half a command and a half-close",
			"PING\r\nPIN", "+PONG\r\n"},
		{"a mutation, then garbage",
			"*3\r\n$6\r\nBF.ADD\r\n$1\r\nf\r\n$9\r\nsurvivor!\r\n*x\r\n", ":1\r\n" + badFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exchange(t, addr, tc.request); got != tc.want {
				t.Fatalf("%q answered %q, want %q", tc.request, got, tc.want)
			}
		})
	}
	if r := do(t, cli, "BF.EXISTS", "f", "survivor!"); r.Int != 1 {
		t.Fatalf("the item added in front of the bad frame is absent: %+v", r)
	}
}

// serveManually accepts one connection on a fresh listener and returns its
// handler, for tests that step the connection loop themselves to look at the
// handler between batches. The client side is returned too.
func serveManually(t *testing.T, srv *Server) (*connHandler, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	deadline := time.Now().Add(30 * time.Second)
	client.SetDeadline(deadline)
	server.SetWriteDeadline(deadline)
	return srv.newConnHandler(server), client
}

// A connection's read buffer grows to hold an oversized command, never past
// the one-maximal-command constant, and is back at its base size as soon as
// the connection reads again with the oversized commands behind it.
func TestConnBufferBounded(t *testing.T) {
	reg := newTestRegistry(t)
	srv := NewServer(reg)
	h, client := serveManually(t, srv)

	const bigCommands, itemsEach = 4, 9000
	item := strings.Repeat("k", 120) // 9000 of them: a command past 1 MiB
	var big bytes.Buffer
	for c := 0; c < bigCommands; c++ {
		fmt.Fprintf(&big, "*%d\r\n$7\r\nBF.MADD\r\n$1\r\nf\r\n", itemsEach+2)
		for i := 0; i < itemsEach; i++ {
			fmt.Fprintf(&big, "$%d\r\n%s%08d\r\n", len(item)+8, item, c*itemsEach+i)
		}
	}
	if big.Len() < bigCommands<<20 {
		t.Fatalf("the %d commands total %d bytes, want more than 1 MiB each", bigCommands, big.Len())
	}
	bigReply := bigCommands * (len("*9000\r\n") + itemsEach*len(":1\r\n"))

	clientErr := make(chan error, 1)
	go func() {
		clientErr <- func() error {
			if _, err := io.WriteString(client, "BF.RESERVE f 0.01 100000\r\n"); err != nil {
				return err
			}
			if _, err := client.Write(big.Bytes()); err != nil {
				return err
			}
			// The small command goes out once every big one is answered,
			// so that it cannot ride in a buffer grown for them.
			if _, err := io.ReadFull(client, make([]byte, len("+OK\r\n")+bigReply)); err != nil {
				return err
			}
			if _, err := io.WriteString(client, "PING\r\n"); err != nil {
				return err
			}
			pong := make([]byte, len("+PONG\r\n"))
			if _, err := io.ReadFull(client, pong); err != nil {
				return err
			}
			if string(pong) != "+PONG\r\n" {
				return fmt.Errorf("the small command answered %q", pong)
			}
			return nil
		}()
	}()

	peak, executed := 0, 0
	for executed < 1+bigCommands+1 {
		n, err := h.readBatch()
		if err != nil {
			t.Fatalf("readBatch after %d commands: %v", executed, err)
		}
		peak = max(peak, len(h.r.buf))
		h.execBatch(h.batch[:n])
		if err := h.w.Flush(); err != nil {
			t.Fatal(err)
		}
		executed += n
	}
	if err := <-clientErr; err != nil {
		t.Fatal(err)
	}
	if peak <= 1<<20 || peak > maxReaderBufSize {
		t.Fatalf("buffer peaked at %d bytes, want past 1 MiB and at most %d", peak, maxReaderBufSize)
	}
	if len(h.r.buf) != readerBufSize {
		t.Fatalf("buffer is %d bytes after the small command, want the base %d", len(h.r.buf), readerBufSize)
	}
	// The run the big commands were staged in is not kept either: its item
	// views, answers and compaction scratch were sized by them.
	if c := cap(h.g.run.Items) + cap(h.g.run.Bools); c >= itemsEach {
		t.Fatalf("the connection's run still holds staging for %d items after the small command", c)
	}
	t.Logf("buffer peaked at %d bytes, back at %d", peak, len(h.r.buf))
}

// parkedConn holds its first SetReadDeadline call — the connection loop
// arming its idle timeout — until released, and reports every later one.
type parkedConn struct {
	net.Conn
	once    sync.Once
	parked  chan struct{} // closed when the first call has arrived
	release chan struct{} // closed to let it through
	later   chan struct{} // one token per later call, once it has been applied
}

func (c *parkedConn) SetReadDeadline(t time.Time) error {
	first := false
	c.once.Do(func() { first = true })
	if first {
		close(c.parked)
		<-c.release
		return c.Conn.SetReadDeadline(t)
	}
	err := c.Conn.SetReadDeadline(t)
	c.later <- struct{}{}
	return err
}

type parkedListener struct {
	net.Listener
	conn *parkedConn
}

func (l *parkedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conn.Conn = c
	return l.conn, nil
}

// Shutdown's wake-up (a read deadline of now) must not be lost to a
// connection loop that checked inShutdown just before and arms its idle
// timeout just after: the interleaving is forced here, and Shutdown has to
// finish long before its context would give up.
func TestShutdownWakeupNotLost(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pc := &parkedConn{parked: make(chan struct{}), release: make(chan struct{}), later: make(chan struct{}, 1)}
	srv := NewServer(newTestRegistry(t))
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(&parkedListener{Listener: ln, conn: pc}) }()

	client, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	<-pc.parked // the loop is past its inShutdown check, about to arm the idle timeout
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	<-pc.later        // Shutdown's wake-up has been applied...
	close(pc.release) // ...and now the idle timeout overwrites it

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v: the connection slept through its wake-up", err)
	}
	if err := <-serveErr; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// scriptedConn is a connection whose peer is the test: Read hands out what
// was last queued, Write keeps what the server answered, deadlines are
// ignored. Nothing in it allocates in steady state.
type scriptedConn struct {
	nopConn
	in  bytes.Reader
	out bytes.Buffer
}

func (c *scriptedConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptedConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// The server-level twin of TestReadCommandSteadyStateAllocs: a whole
// connection turn — read a batch, execute it, render and flush the reply —
// of one 64-key command allocates nothing once warm.
func TestConnTurnSteadyStateAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops entries under the race detector")
			}
		}
	}
	reg := newTestRegistry(t)
	srv := NewServer(reg)
	conn := &scriptedConn{}
	h := srv.newConnHandler(conn)
	turn := func(request []byte) []byte {
		conn.in.Reset(request)
		conn.out.Reset()
		n, err := h.readBatch()
		if err != nil {
			t.Fatal(err)
		}
		h.execBatch(h.batch[:n])
		if err := h.w.Flush(); err != nil {
			t.Fatal(err)
		}
		return conn.out.Bytes()
	}
	if got := turn([]byte("BF.RESERVE bench 0.01 100000\r\n")); string(got) != "+OK\r\n" {
		t.Fatalf("BF.RESERVE answered %q", got)
	}
	mexists := benchShapedCommand(64)
	madd := bytes.Replace(mexists, []byte("$10\r\nBF.MEXISTS"), []byte("$7\r\nBF.MADD"), 1)
	for _, tc := range []struct {
		name    string
		request []byte
		want    string
	}{
		// After the warm-up turn every key is present: MADD reports
		// nothing new, MEXISTS finds them all.
		{"BF.MADD", madd, "*64\r\n" + strings.Repeat(":0\r\n", 64)},
		{"BF.MEXISTS", mexists, "*64\r\n" + strings.Repeat(":1\r\n", 64)},
	} {
		turn(madd)
		allocs := testing.AllocsPerRun(200, func() {
			if got := turn(tc.request); string(got) != tc.want {
				t.Fatalf("%s answered %q", tc.name, got)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per command, want 0", tc.name, allocs)
		}
	}
}
