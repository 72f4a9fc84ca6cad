package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func readOne(t *testing.T, in string) (*Command, error) {
	t.Helper()
	r := NewReader(strings.NewReader(in))
	cmd := &Command{}
	err := r.ReadCommand(cmd)
	return cmd, err
}

func args(cmd *Command) []string {
	out := make([]string, len(cmd.Args))
	for i, a := range cmd.Args {
		out[i] = string(a)
	}
	return out
}

func TestReadCommandValid(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string
	}{
		{"ping", "*1\r\n$4\r\nPING\r\n", []string{"PING"}},
		{"add", "*3\r\n$6\r\nBF.ADD\r\n$7\r\ndefault\r\n$4\r\nitem\r\n", []string{"BF.ADD", "default", "item"}},
		{"empty bulk arg", "*2\r\n$4\r\nECHO\r\n$0\r\n\r\n", []string{"ECHO", ""}},
		{"binary payload", "*2\r\n$4\r\nECHO\r\n$3\r\n\x00\xff\n\r\n", []string{"ECHO", "\x00\xff\n"}},
		{"inline", "PING\r\n", []string{"PING"}},
		{"inline bare newline", "PING\n", []string{"PING"}},
		{"inline with args", "BF.EXISTS default item\r\n", []string{"BF.EXISTS", "default", "item"}},
		{"inline extra whitespace", "  PING \t pong \r\n", []string{"PING", "pong"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd, err := readOne(t, tc.in)
			if err != nil {
				t.Fatalf("ReadCommand(%q): %v", tc.in, err)
			}
			got := args(cmd)
			if len(got) != len(tc.want) {
				t.Fatalf("args = %q, want %q", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("arg %d = %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestReadCommandEmptyLinesAreSkippable(t *testing.T) {
	for _, in := range []string{"\r\n", "\n", "*0\r\n"} {
		cmd, err := readOne(t, in)
		if err != nil {
			t.Fatalf("ReadCommand(%q): %v", in, err)
		}
		if len(cmd.Args) != 0 {
			t.Fatalf("ReadCommand(%q) produced args %q, want none", in, args(cmd))
		}
	}
}

func TestReadCommandProtocolErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"negative multibulk", "*-3\r\n"},
		{"huge multibulk", fmt.Sprintf("*%d\r\n", MaxCommandArgs+1)},
		{"garbage multibulk len", "*abc\r\n"},
		{"missing bulk header", "*1\r\nPING\r\n"},
		{"negative bulk len", "*1\r\n$-1\r\n"},
		{"oversized bulk", fmt.Sprintf("*1\r\n$%d\r\n", MaxArgLen+1)},
		{"garbage bulk len", "*1\r\n$xyz\r\n"},
		{"payload missing terminator", "*1\r\n$4\r\nPINGxx\r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readOne(t, tc.in)
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("ReadCommand(%q) err = %v, want *ProtocolError", tc.in, err)
			}
		})
	}
}

func TestReadCommandTruncated(t *testing.T) {
	// A stream ending mid-frame is an I/O error (EOF family), never a
	// successful parse and never a panic.
	cases := []string{
		"*2\r\n$4\r\nPING\r\n", // one arg of two
		"*1\r\n$4\r\nPI",       // payload cut short
		"*1\r\n$4\r\nPING",     // missing CRLF
		"*1\r\n",               // no bulk at all
		"*2",                   // header cut mid-line
	}
	for _, in := range cases {
		_, err := readOne(t, in)
		if err == nil {
			t.Fatalf("ReadCommand(%q) succeeded, want error", in)
		}
		var pe *ProtocolError
		if errors.As(err, &pe) {
			continue // a truncation surfacing as framing error is fine
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("ReadCommand(%q) err = %v, want EOF family or protocol error", in, err)
		}
	}
}

func TestReadCommandAggregatePayloadCap(t *testing.T) {
	// Many max-size bulks in one command must trip the aggregate cap, not
	// allocate MaxCommandArgs × MaxArgLen.
	var sb strings.Builder
	n := MaxCommandBytes/MaxArgLen + 2
	fmt.Fprintf(&sb, "*%d\r\n", n)
	payload := strings.Repeat("a", MaxArgLen)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "$%d\r\n%s\r\n", MaxArgLen, payload)
	}
	_, err := readOne(t, sb.String())
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProtocolError for aggregate cap", err)
	}
}

func TestReadCommandPipelinedReuse(t *testing.T) {
	// Sequential commands through ONE Command must reuse its storage; args
	// must be correct each time even as sizes vary.
	in := "*2\r\n$4\r\nECHO\r\n$1\r\na\r\n" +
		"*2\r\n$4\r\nECHO\r\n$26\r\nabcdefghijklmnopqrstuvwxyz\r\n" +
		"*1\r\n$4\r\nPING\r\n"
	r := NewReader(strings.NewReader(in))
	cmd := &Command{}
	want := [][]string{{"ECHO", "a"}, {"ECHO", "abcdefghijklmnopqrstuvwxyz"}, {"PING"}}
	for i, w := range want {
		if err := r.ReadCommand(cmd); err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		got := args(cmd)
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("command %d = %q, want %q", i, got, w)
		}
	}
}

func TestReadCommandSteadyStateAllocs(t *testing.T) {
	// The zero-alloc decode claim, as a regression gate: after warm-up,
	// re-reading the same pipelined stream into the same Command must not
	// allocate per command (the reader's buffer and the Command's Args are
	// reused; only the bytes.Reader reset remains).
	var buf bytes.Buffer
	const n = 200
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "*3\r\n$7\r\nBF.MADD\r\n$5\r\nbench\r\n$24\r\nhttp://e.example/%07d\r\n", i)
	}
	input := buf.Bytes()
	br := bytes.NewReader(input)
	r := NewReader(br)
	cmd := &Command{}
	// Warm-up pass grows Args and the scan's bookkeeping to steady state.
	for i := 0; i < n; i++ {
		if err := r.ReadCommand(cmd); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		br.Reset(input)
		r.src, r.r, r.w = br, 0, 0
		for i := 0; i < n; i++ {
			if err := r.ReadCommand(cmd); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perCmd := allocs / n; perCmd > 0.01 {
		t.Fatalf("steady-state decode allocates %.3f allocs/command, want ~0", perCmd)
	}
}

func TestWriteErrorStripsCRLF(t *testing.T) {
	var buf bytes.Buffer
	w := newTestWriter(&buf)
	writeError(w, "ERR bad\r\nthing")
	w.Flush()
	got := buf.String()
	if got != "-ERR bad  thing\r\n" {
		t.Fatalf("writeError = %q; embedded CRLF must not survive", got)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	// Serialize every reply shape, then decode with the client reader.
	var buf bytes.Buffer
	w := newTestWriter(&buf)
	writeSimple(w, "OK")
	writeError(w, "ERR boom")
	writeInt(w, -42)
	writeBulk(w, []byte("payload"))
	writeArrayHeader(w, 2)
	writeInt(w, 1)
	writeInt(w, 0)
	writeMapHeader(w, 1, 3)
	writeBulkString(w, "k")
	writeBulkFloat(w, 0.25)
	w.Flush()

	cli := NewClient(nopConn{r: bytes.NewReader(buf.Bytes())})
	cli.pending = 5
	checks := []func(r *Reply) error{
		func(r *Reply) error { return expect(r.Type == '+' && r.Str == "OK", "simple", r) },
		func(r *Reply) error { return expect(r.Type == '-' && r.Str == "ERR boom", "error", r) },
		func(r *Reply) error { return expect(r.Type == ':' && r.Int == -42, "int", r) },
		func(r *Reply) error { return expect(r.Type == '$' && r.Str == "payload", "bulk", r) },
		func(r *Reply) error {
			return expect(r.Type == '*' && len(r.Elems) == 2 && r.Elems[0].Int == 1 && r.Elems[1].Int == 0, "array", r)
		},
	}
	for i, check := range checks {
		reply, err := cli.Receive()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if err := check(reply); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	// The RESP3 map decodes as 2n flat elements.
	cli.pending = 1
	reply, err := cli.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != '%' || len(reply.Elems) != 2 || reply.Elems[0].Str != "k" {
		t.Fatalf("map reply = %+v", reply)
	}
}

func expect(ok bool, what string, r *Reply) error {
	if !ok {
		return fmt.Errorf("unexpected %s reply: %+v", what, r)
	}
	return nil
}

func newTestWriter(buf *bytes.Buffer) *bufio.Writer { return bufio.NewWriter(buf) }

// nopConn adapts a reader into the net.Conn the client constructor wants;
// writes vanish (these tests only decode).
type nopConn struct{ r io.Reader }

func (c nopConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c nopConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c nopConn) Close() error                       { return nil }
func (c nopConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c nopConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c nopConn) SetDeadline(t time.Time) error      { return nil }
func (c nopConn) SetReadDeadline(t time.Time) error  { return nil }
func (c nopConn) SetWriteDeadline(t time.Time) error { return nil }

func TestBusyRetryParsing(t *testing.T) {
	r := &Reply{Type: '-', Str: `BUSY mutation budget exhausted for filter "default" (1 mutation(s) requested); retry after 42s`}
	if !r.IsBusy() {
		t.Fatal("IsBusy = false")
	}
	secs, ok := r.BusyRetrySeconds()
	if !ok || secs != 42 {
		t.Fatalf("BusyRetrySeconds = %d, %v; want 42, true", secs, ok)
	}
	plain := &Reply{Type: '-', Str: "ERR no such filter"}
	if plain.IsBusy() {
		t.Fatal("plain error reported busy")
	}
}
