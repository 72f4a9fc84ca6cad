package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// chunked hands its data out a few bytes per Read: sizes cycle through a
// pattern drawn from seed, each between 1 and max. Any cut the transport can
// make between two bytes of a stream is some seed's cut.
type chunked struct {
	data []byte
	max  int
	seed uint64
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	c.seed = c.seed*6364136223846793005 + 1442695040888963407
	n := min(1+int(c.seed>>33)%c.max, len(c.data), len(p))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// errText is an error's text with the two EOF flavours folded into one: the
// old reader reported a stream ending inside a line as io.EOF and one ending
// inside a payload as io.ErrUnexpectedEOF; the new one says the latter for
// both.
func errText(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "EOF"
	}
	return err.Error()
}

// decodeAll reads commands until the first error and returns them with that
// error's text. read decodes one command and returns its arguments.
func decodeAll(read func() ([][]byte, error)) (cmds [][]string, errStr string) {
	for {
		argv, err := read()
		if err != nil {
			return cmds, errText(err)
		}
		cmd := make([]string, len(argv))
		for i, a := range argv {
			cmd[i] = string(a)
		}
		cmds = append(cmds, cmd)
	}
}

// matchOracle decodes data with the old reader and the new one, both fed in
// pieces of at most maxChunk bytes cut by seed, and fails on any difference
// in the commands yielded or in the error that ends the stream.
func matchOracle(t *testing.T, data []byte, maxChunk int, seed uint64) {
	t.Helper()
	or := newOracleReader(&chunked{data: data, max: maxChunk, seed: seed})
	var ocmd oracleCommand
	want, wantErr := decodeAll(func() ([][]byte, error) {
		err := or.ReadCommand(&ocmd)
		return ocmd.Args, err
	})
	r := NewReader(&chunked{data: data, max: maxChunk, seed: seed})
	var cmd Command
	got, gotErr := decodeAll(func() ([][]byte, error) {
		err := r.ReadCommand(&cmd)
		return cmd.Args, err
	})
	if gotErr != wantErr {
		t.Fatalf("stream ends with %q, the oracle's with %q (input %d bytes, chunks ≤ %d, seed %d)",
			gotErr, wantErr, len(data), maxChunk, seed)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d commands, the oracle %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprintf("%q", got[i]) != fmt.Sprintf("%q", want[i]) {
			t.Fatalf("command %d = %.200q, the oracle's %.200q", i, got[i], want[i])
		}
	}
}

// benchShapedCommand is a BF.MEXISTS of n keys shaped like bench/keys.go's:
// URL-like, 32 to 47 bytes.
func benchShapedCommand(n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "*%d\r\n$10\r\nBF.MEXISTS\r\n$5\r\nbench\r\n", n+2)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("http://h%03x.ex.org/u/a%010x%s", i*37&0xfff, i, "0123456789abcdef"[:1+i%16])
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(key), key)
	}
	return b.Bytes()
}

// FuzzReadCommandMatchesOracle is the differential half of FuzzReadCommand:
// the same corpus and more, through both readers, under arbitrary cuts.
func FuzzReadCommandMatchesOracle(f *testing.F) {
	seeds := [][]byte{
		// FuzzReadCommand's corpus.
		[]byte("*1\r\n$4\r\nPING\r\n"),
		[]byte("*3\r\n$6\r\nBF.ADD\r\n$7\r\ndefault\r\n$4\r\nitem\r\n"),
		[]byte("*2\r\n$4\r\nECHO\r\n$0\r\n\r\n"),
		[]byte("*2\r\n$4\r\nECHO\r\n$3\r\n\x00\xff\n\r\n"),
		[]byte("PING\r\n"),
		[]byte("BF.EXISTS default item\n"),
		[]byte("  spaced \t out \r\n"),
		[]byte("*2\r\n$4\r\nPING\r\n"),
		[]byte("*1\r\n$4\r\nPI"),
		[]byte("*1\r\n"),
		[]byte("*2"),
		[]byte(fmt.Sprintf("*1\r\n$%d\r\n", MaxArgLen+1)),
		[]byte(fmt.Sprintf("*%d\r\n", MaxCommandArgs+1)),
		[]byte("*-1\r\n"),
		[]byte("*1\r\n$-1\r\n"),
		[]byte("*99999999999999999999\r\n"),
		[]byte("*abc\r\n$def\r\n"),
		[]byte("*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nPING\r\n"),
		[]byte("\r\n\r\n*0\r\nPING\r\n"),
		bytes.Repeat([]byte("$"), 512),
		[]byte(strings.Repeat("a", maxInlineLen+2)),
		// Shapes only the line grammar accepts, and where it stops.
		[]byte("*1\n$4\nPING\n*1\r\n$4\r\nPONG\n"),
		[]byte("*1\r\n$+4\r\nPING\r\n"),
		[]byte("*1\r\n$04\r\nPING\r\n"),
		[]byte("*1\r\n$4 \r\nPING\r\n"),
		[]byte("*01\r\n$0000004\r\nPING\r\n*1\r\n$00000004\r\nPING\r\n"),
		[]byte("*1\r\n$4\r\nPING\rx*1\r\n$4\r\nPING\r\n"),
		[]byte("*1\r\r\n$4\r\nPING\r\n"),
		[]byte(strings.Repeat("b", 65538) + "\r\n"),
		[]byte("*1\r\n$" + strings.Repeat("0", 65533) + "\r\n"),
		benchShapedCommand(64),
	}
	for i, s := range seeds {
		f.Add(s, uint16(1+i%7), uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, maxChunk uint16, seed uint64) {
		matchOracle(t, data, 1+int(maxChunk), seed)
	})
}

// Every wire limit, one byte inside it and one byte outside, against both
// readers: each must draw the same line in the same words.
func TestReadCommandLimitsMatchOracle(t *testing.T) {
	bulk := func(n int) string { return fmt.Sprintf("$%d\r\n%s\r\n", n, strings.Repeat("x", n)) }
	// fill is n arguments carrying bytes of payload between them.
	fill := func(n, bytes int) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "*%d\r\n", n)
		for i := 0; i < n; i++ {
			size := min(bytes, MaxArgLen)
			sb.WriteString(bulk(size))
			bytes -= size
		}
		return sb.String()
	}
	perArg := MaxCommandBytes/MaxArgLen + 1 // arguments it takes to reach the payload cap
	longLine := strings.Repeat(strings.Repeat("a", MaxArgLen-1)+" ", maxInlineLen/MaxArgLen)
	cases := []struct {
		name, in, wantErr string
	}{
		{"MaxArgLen", "*1\r\n" + bulk(MaxArgLen), "EOF"},
		{"MaxArgLen+1", "*1\r\n" + bulk(MaxArgLen+1), "Protocol error: invalid bulk length"},
		{"MaxCommandArgs", fill(MaxCommandArgs, 0), "EOF"},
		{"MaxCommandArgs+1", fill(MaxCommandArgs+1, 0), "Protocol error: invalid multibulk length"},
		{"MaxCommandBytes", fill(perArg, MaxCommandBytes), "EOF"},
		{"MaxCommandBytes+1", fill(perArg, MaxCommandBytes+1),
			fmt.Sprintf("Protocol error: command payload exceeds %d bytes", MaxCommandBytes)},
		{"inline line of maxInlineLen", longLine[:maxInlineLen-1] + "\n", "EOF"},
		{"inline line of maxInlineLen+1", longLine[:maxInlineLen] + "\n", "Protocol error: line too long"},
		{"header line of maxInlineLen+1", "*1\r\n$" + strings.Repeat("0", maxInlineLen-2) + "1\r\n", "Protocol error: line too long"},
		{"unterminated line at maxInlineLen", strings.Repeat("a", maxInlineLen), "Protocol error: line too long"},
		{"unterminated line short of maxInlineLen", strings.Repeat("a", maxInlineLen-1), "EOF"},
		{"inline argument of MaxArgLen", "ECHO " + strings.Repeat("a", MaxArgLen) + "\r\n", "EOF"},
		{"inline argument of MaxArgLen+1", "ECHO " + strings.Repeat("a", MaxArgLen+1) + "\r\n", "Protocol error: too big inline argument"},
		{"inline MaxCommandArgs", strings.Repeat("a ", MaxCommandArgs) + "\r\n", "EOF"},
		{"inline MaxCommandArgs+1", strings.Repeat("a ", MaxCommandArgs+1) + "\r\n", "Protocol error: too many inline arguments"},
		{"integer of 20 characters", "*1\r\n$+0000000000000000004\r\nPING\r\n", "EOF"},
		{"integer of 21 characters", "*1\r\n$+00000000000000000004\r\nPING\r\n", "Protocol error: invalid bulk length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.in)
			r := NewReader(bytes.NewReader(data))
			var cmd Command
			_, gotErr := decodeAll(func() ([][]byte, error) {
				err := r.ReadCommand(&cmd)
				return cmd.Args, err
			})
			if gotErr != tc.wantErr {
				t.Fatalf("stream ends with %q, want %q", gotErr, tc.wantErr)
			}
			matchOracle(t, data, len(data), 0) // whole
			matchOracle(t, data, 4093, 1)      // in pieces
		})
	}
}

// A pipelined stream cut in two at every byte offset decodes to the same
// commands, whichever command, header, payload or terminator the cut lands in.
func TestReadCommandEverySplit(t *testing.T) {
	stream := []byte("*1\r\n$4\r\nPING\r\n" +
		"PING inline\r\n" +
		"*3\r\n$6\r\nBF.ADD\r\n$+7\r\ndefault\r\n$04\r\nitem\n" +
		"\r\n*0\r\n" +
		"*2\r\n$4\r\nECHO\r\n$3\r\n\x00\r\n\r\n" +
		"bare newline\n")
	want := [][]string{
		{"PING"}, {"PING", "inline"}, {"BF.ADD", "default", "item"}, {}, {},
		{"ECHO", "\x00\r\n"}, {"bare", "newline"},
	}
	for cut := 0; cut <= len(stream); cut++ {
		r := NewReader(io.MultiReader(bytes.NewReader(stream[:cut]), bytes.NewReader(stream[cut:])))
		var cmd Command
		got, errStr := decodeAll(func() ([][]byte, error) {
			err := r.ReadCommand(&cmd)
			return cmd.Args, err
		})
		if errStr != "EOF" || fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
			t.Fatalf("cut at %d: decoded %q ending in %q, want %q ending in EOF", cut, got, errStr, want)
		}
	}
}

// A maximal-argument command arriving one byte per Read is scanned in linear
// time: the decoder keeps its place between reads. Counted, not timed — the
// reader tallies every byte it looks at, again each time it looks again.
func TestReadCommandLinearInChunks(t *testing.T) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "*%d\r\n", MaxCommandArgs)
	for i := 0; i < MaxCommandArgs; i++ {
		fmt.Fprintf(&sb, "$%d\r\n%s\r\n", 1+i%12, "abcdefghijkl"[:1+i%12])
	}
	// And the slowest header there is: the longest line of digits that
	// still parses as nothing, which only the line grammar can refuse.
	tail := "*1\r\n$" + strings.Repeat("7", maxInlineLen-8) + "\r\n"
	stream := []byte(sb.String() + tail)

	r := NewReader(&chunked{data: stream, max: 1})
	var cmd Command
	if err := r.ReadCommand(&cmd); err != nil {
		t.Fatal(err)
	}
	if len(cmd.Args) != MaxCommandArgs || string(cmd.Args[MaxCommandArgs-1]) != "abcdefghijkl"[:1+(MaxCommandArgs-1)%12] {
		t.Fatalf("decoded %d arguments, last %q", len(cmd.Args), cmd.Args[len(cmd.Args)-1])
	}
	if err := r.ReadCommand(&cmd); errText(err) != "Protocol error: invalid bulk length" {
		t.Fatalf("the all-digits header ended in %v", err)
	}
	// Once by the fast path, once by the search for '\n', once by the parse.
	if limit := 3 * len(stream); r.scanned > limit {
		t.Fatalf("looked at %d bytes to decode %d fed one at a time: more than three looks a byte", r.scanned, len(stream))
	}
	t.Logf("%d bytes, %d looked at (%.2f a byte)", len(stream), r.scanned, float64(r.scanned)/float64(len(stream)))
}

// The arguments of every command of a batch — one blocking read, then
// ReadBuffered until it declines — are still what they were once the whole
// batch has been decoded, also when the last command ends on the buffer's
// last byte and a partial one follows in the stream.
func TestBatchViewsStayValid(t *testing.T) {
	const batch = 512
	const each = readerBufSize / batch // bytes per command, framing included
	const payload = each - len("*2\r\n$4\r\n0000\r\n$100\r\n") - len("\r\n")
	var stream bytes.Buffer
	for i := 0; i < batch; i++ {
		fmt.Fprintf(&stream, "*2\r\n$4\r\n%04d\r\n$%d\r\n%s\r\n", i, payload, strings.Repeat(string(rune('a'+i%26)), payload))
	}
	if stream.Len() != readerBufSize {
		t.Fatalf("stream is %d bytes, want exactly the buffer's %d", stream.Len(), readerBufSize)
	}
	stream.WriteString("*1\r\n$4\r\nPI") // the next command, still on its way

	r := NewReader(&stream)
	cmds := make([]Command, batch+1)
	if err := r.ReadCommand(&cmds[0]); err != nil {
		t.Fatal(err)
	}
	n := 1
	for n < len(cmds) && r.ReadBuffered(&cmds[n]) {
		n++
	}
	if n != batch {
		t.Fatalf("batch of %d commands, want %d", n, batch)
	}
	if r.w != len(r.buf) || r.Buffered() != 0 {
		t.Fatalf("buffer [%d:%d] of %d: the batch should end on its last byte", r.r, r.w, len(r.buf))
	}
	for i := 0; i < batch; i++ {
		a := cmds[i].Args
		if len(a) != 2 || string(a[0]) != fmt.Sprintf("%04d", i) || len(a[1]) != payload ||
			strings.Trim(string(a[1]), string(rune('a'+i%26))) != "" {
			t.Fatalf("command %d reads %.40q after the batch was decoded", i, a)
		}
	}
	// The partial command is reported by the next blocking read, not lost.
	if err := r.ReadCommand(&cmds[0]); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial command after the batch: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// BenchmarkReadCommand decodes one 64-key BF.MEXISTS of bench-shaped keys
// per iteration, with the reader under test and with the oracle.
func BenchmarkReadCommand(b *testing.B) {
	input := benchShapedCommand(64)
	b.Run("inplace", func(b *testing.B) {
		src := bytes.NewReader(input)
		r := NewReader(src)
		var cmd Command
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Reset(input)
			if err := r.ReadCommand(&cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		src := bytes.NewReader(input)
		r := newOracleReader(src)
		var cmd oracleCommand
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Reset(input)
			if err := r.ReadCommand(&cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
}
