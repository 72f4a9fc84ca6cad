package resp

import (
	"bufio"
	"errors"
	"io"
)

// The decoder as it stood before commands were parsed in place: a
// bufio.Reader, one arena per command, every argument copied. Kept verbatim
// (types renamed, nothing else) as the reference the in-place Reader is
// compared against; it shares parseInt, protoErrf and the wire limits with
// the code under test, so a divergence is a difference in framing, never in
// the integer grammar.

// oracleBufSize is the bufio buffer the old reader ran with. Its size was
// also its line limit: ReadSlice gives up once that many bytes hold no '\n'.
const oracleBufSize = 64 << 10

// oracleCommand is one decoded client command. Args alias an internal arena that
// is overwritten by the next ReadCommand into the same oracleCommand, so a batch
// of concurrently-live commands needs one oracleCommand value each.
type oracleCommand struct {
	Args [][]byte

	arena []byte
	lens  []int
}

// reset prepares the command for reuse, keeping capacity.
func (c *oracleCommand) reset() {
	c.Args = c.Args[:0]
	c.arena = c.arena[:0]
	c.lens = c.lens[:0]
}

// grow appends payload space for one argument to the arena and records its
// length. Args are materialized only after all reads: arena growth may
// reallocate, which would invalidate earlier slices.
func (c *oracleCommand) grow(n int) []byte {
	off := len(c.arena)
	if cap(c.arena)-off < n {
		next := make([]byte, off, max(off+n, 2*cap(c.arena)))
		copy(next, c.arena)
		c.arena = next
	}
	c.arena = c.arena[:off+n]
	c.lens = append(c.lens, n)
	return c.arena[off : off+n]
}

// materialize rebuilds Args from the recorded lengths once the arena is
// stable.
func (c *oracleCommand) materialize() {
	off := 0
	for _, n := range c.lens {
		c.Args = append(c.Args, c.arena[off:off+n])
		off += n
	}
}

// oracleReader decodes client commands (RESP arrays of bulk strings, plus the
// inline plain text form) from a stream.
type oracleReader struct {
	br *bufio.Reader
}

// newOracleReader wraps r in a command decoder.
func newOracleReader(r io.Reader) *oracleReader {
	return &oracleReader{br: bufio.NewReaderSize(r, oracleBufSize)}
}

// Buffered reports how many decoded-but-unread bytes are sitting in the read
// buffer — nonzero means at least part of another pipelined command has
// already arrived.
func (r *oracleReader) Buffered() int { return r.br.Buffered() }

// ReadCommand decodes the next command into cmd, reusing its storage. An
// empty inline line or zero-element array yields len(cmd.Args) == 0; callers
// skip those. Errors are either I/O errors or *ProtocolError.
func (r *oracleReader) ReadCommand(cmd *oracleCommand) error {
	cmd.reset()
	line, err := r.readLine()
	if err != nil {
		return err
	}
	if len(line) == 0 {
		return nil
	}
	if line[0] != '*' {
		return r.readInline(cmd, line)
	}
	n, err := parseInt(line[1:])
	if err != nil {
		return protoErrf("invalid multibulk length")
	}
	if n < 0 || n > MaxCommandArgs {
		return protoErrf("invalid multibulk length")
	}
	total := 0
	for i := int64(0); i < n; i++ {
		hdr, err := r.readLine()
		if err != nil {
			return err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return protoErrf("expected '$', got %q", firstByte(hdr))
		}
		blen, err := parseInt(hdr[1:])
		if err != nil || blen < 0 || blen > MaxArgLen {
			return protoErrf("invalid bulk length")
		}
		total += int(blen)
		if total > MaxCommandBytes {
			return protoErrf("command payload exceeds %d bytes", MaxCommandBytes)
		}
		dst := cmd.grow(int(blen))
		if _, err := io.ReadFull(r.br, dst); err != nil {
			return readErr(err)
		}
		if err := r.expectCRLF(); err != nil {
			return err
		}
	}
	cmd.materialize()
	return nil
}

// readInline decodes the plain text command form ("PING\r\n"), splitting on
// spaces and tabs. Quoting is not supported.
func (r *oracleReader) readInline(cmd *oracleCommand, line []byte) error {
	if len(line) > maxInlineLen {
		return protoErrf("too big inline request")
	}
	// Copy the whole line first: line aliases the bufio buffer.
	buf := cmd.grow(len(line))
	copy(buf, line)
	cmd.lens = cmd.lens[:0]
	start := -1
	for i := 0; i <= len(buf); i++ {
		if i < len(buf) && buf[i] != ' ' && buf[i] != '\t' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			if i-start > MaxArgLen {
				return protoErrf("too big inline argument")
			}
			cmd.Args = append(cmd.Args, buf[start:i])
			if len(cmd.Args) > MaxCommandArgs {
				return protoErrf("too many inline arguments")
			}
			start = -1
		}
	}
	return nil
}

// readLine returns the next line without its terminator. Lines may end in
// \r\n (standard) or bare \n (tolerated for inline use via netcat).
func (r *oracleReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return nil, protoErrf("line too long")
		}
		return nil, readErr(err)
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

func (r *oracleReader) expectCRLF() error {
	b, err := r.br.ReadByte()
	if err != nil {
		return readErr(err)
	}
	if b == '\n' {
		return nil
	}
	if b != '\r' {
		return protoErrf("expected CRLF after bulk payload")
	}
	if b, err = r.br.ReadByte(); err != nil {
		return readErr(err)
	}
	if b != '\n' {
		return protoErrf("expected CRLF after bulk payload")
	}
	return nil
}

// readErr normalizes a mid-frame EOF: a stream ending inside a command is a
// truncated frame, not a clean close.
func readErr(err error) error {
	if errors.Is(err, io.EOF) && err != io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
