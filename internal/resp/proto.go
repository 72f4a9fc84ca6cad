package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

	"evilbloom/internal/service"
)

// Wire limits. Command-side bounds mirror the HTTP plane so neither plane
// accepts a request the other would refuse: an argument is capped at
// MaxItemLen (items are the longest legitimate argument), a command at
// MaxBatch items plus command word and filter name, and a whole command's
// payload at MaxBodyBytes.
const (
	// MaxCommandArgs bounds the argument count of one command.
	MaxCommandArgs = service.MaxBatch + 8
	// MaxArgLen bounds a single bulk-string argument.
	MaxArgLen = service.MaxItemLen
	// MaxCommandBytes bounds the total payload of one command's arguments.
	MaxCommandBytes = service.MaxBodyBytes
	// maxInlineLen bounds any line with its terminator: an inline (plain
	// text) command, or a '*' or '$' length header.
	maxInlineLen = 64 << 10
	// readerBufSize is the connection read buffer every connection starts
	// with and returns to. Large enough that a typical pipelined burst of
	// small commands is drained in one syscall.
	readerBufSize = 64 << 10
	// maxHeaderLen is the longest line that can parse as a length header:
	// the type byte, the 20 characters parseInt accepts, and CRLF.
	maxHeaderLen = 1 + 20 + 2
	// maxReaderBufSize is what the read buffer may grow to: one command at
	// every limit with all its framing, plus one unterminated line on its
	// way to being refused. A command that respects the limits always fits,
	// and one that does not is refused before it has outgrown this.
	maxReaderBufSize = maxHeaderLen + MaxCommandArgs*(maxHeaderLen+2) + MaxCommandBytes + maxInlineLen
)

// ProtocolError is a malformed-frame error: the server reports it to the
// client with a "-ERR Protocol error" reply and closes the connection
// (recovery is impossible — framing is lost), matching Redis behaviour.
type ProtocolError struct{ msg string }

func (e *ProtocolError) Error() string { return "Protocol error: " + e.msg }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{msg: fmt.Sprintf(format, args...)}
}

// Command is one decoded client command. Args, and the bytes they point at,
// belong to the Reader that decoded it: they stay valid until the next
// ReadCommand on that Reader, and across any number of ReadBuffered calls in
// between. Every slice handed out has its capacity cut to its length, so
// appending to one copies it instead of writing over what follows it.
type Command struct {
	Args [][]byte
}

// span locates one argument of the command being scanned, as an offset from
// the command's first byte.
type span struct{ off, n uint32 }

// Reader decodes client commands (RESP arrays of bulk strings, plus the
// inline plain text form) from a stream, in place: it owns one buffer, reads
// the stream into it, and hands out arguments as views of it. What a
// connection can pin on the read side is that buffer and one list of views.
//
// The scan of a command is resumable. Everything known about the command at
// buf[r:] is held as offsets from r, so sliding or regrowing the buffer
// between two reads leaves it valid, and a byte that has been scanned is not
// scanned again however the command is cut up by the transport.
type Reader struct {
	src io.Reader
	buf []byte // buf[r:w] is read and not yet consumed
	r   int
	w   int
	err error // from src, owed to the caller once buf[r:w] holds no command

	// args holds every argument handed out since the last ReadCommand, one
	// command after the other; a Command's Args is its piece of it.
	args [][]byte

	pos   int    // the next element (header line or payload) starts here
	seen  int    // bytes from pos already searched for a line's '\n'
	want  int    // arguments announced by the '*' header; -1 before it
	bulk  int    // payload length announced by the '$' header at hand; -1 before it
	total int    // payload bytes announced so far
	spans []span // arguments complete so far

	scanned int // bytes looked at so far, a byte looked at twice counted twice
}

// NewReader wraps r in a command decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r, buf: make([]byte, readerBufSize), want: -1, bulk: -1}
}

// Buffered reports how many bytes have been read from the stream and not yet
// consumed — nonzero means at least part of another pipelined command has
// already arrived.
func (r *Reader) Buffered() int { return r.w - r.r }

// ReadCommand decodes the next command into cmd, reading from the stream
// only when the buffered bytes do not hold a whole command. An empty inline
// line or zero-element array yields len(cmd.Args) == 0; callers skip those.
// Errors are either I/O errors or *ProtocolError. Reading may move the
// buffer, which ends the life of every argument handed out before.
func (r *Reader) ReadCommand(cmd *Command) error {
	r.args = r.args[:0]
	for idle := 0; ; {
		done, err := r.scan(cmd)
		if done || err != nil {
			return err
		}
		if err = r.err; err != nil {
			r.err = nil
			if err == io.EOF && r.w > r.r {
				// A stream ending inside a command is a truncated
				// frame, not a clean close.
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if err = r.makeRoom(); err != nil {
			return err
		}
		n, err := r.src.Read(r.buf[r.w:])
		r.w += n
		r.err = err
		if n > 0 || err != nil {
			idle = 0
		} else if idle++; idle == 100 {
			return io.ErrNoProgress
		}
	}
}

// ReadBuffered decodes the next command into cmd if all of it is already
// buffered and reports whether it did. It never reads from the stream and
// never moves the buffer, so arguments handed out earlier stay valid. A
// command that is incomplete or malformed is left for ReadCommand to wait
// for or to report.
func (r *Reader) ReadBuffered(cmd *Command) bool {
	done, _ := r.scan(cmd)
	return done
}

// makeRoom leaves free space behind the unconsumed bytes: by dropping an
// outgrown buffer (and the argument list that grew with it) for a fresh one
// of the base size once what is pending fits in that, else by sliding the
// pending bytes to the front, else by doubling the buffer up to
// maxReaderBufSize.
func (r *Reader) makeRoom() error {
	pending := r.w - r.r
	switch {
	case len(r.buf) > readerBufSize && pending < readerBufSize:
		fresh := make([]byte, readerBufSize)
		copy(fresh, r.buf[r.r:r.w])
		r.buf, r.args = fresh, nil
	case r.r > 0:
		copy(r.buf, r.buf[r.r:r.w])
	case pending == len(r.buf):
		if pending == maxReaderBufSize {
			// Unreachable while scan refuses what exceeds a limit; kept
			// so that a mistake there closes a connection rather than
			// spinning on zero-byte reads.
			return protoErrf("command exceeds %d bytes with its framing", maxReaderBufSize)
		}
		grown := make([]byte, min(2*pending, maxReaderBufSize))
		copy(grown, r.buf)
		r.buf = grown
	}
	r.r, r.w = 0, pending
	return nil
}

// scan advances the decode of the command at buf[r:] as far as the buffered
// bytes allow. It reports done once the command is whole: cmd.Args are then
// views of the buffer and the command's bytes are consumed. Short of that it
// records how far it got and returns; on a malformed frame it returns the
// error without advancing, so scanning again reports it again.
func (r *Reader) scan(cmd *Command) (done bool, err error) {
	b := r.buf[r.r:r.w]
	if len(b) == 0 {
		return false, nil
	}

	if r.want < 0 {
		n, adv := r.lengthHeader(b, '*')
		if adv == 0 {
			line, lineAdv, err := r.line(b)
			if lineAdv == 0 {
				return false, err
			}
			if len(line) == 0 || line[0] != '*' {
				return r.inline(cmd, line, lineAdv)
			}
			n, adv = parseLength(line[1:]), lineAdv
		}
		if n < 0 || n > MaxCommandArgs {
			return false, protoErrf("invalid multibulk length")
		}
		r.want, r.pos = int(n), adv
	}

	for len(r.spans) < r.want {
		if r.bulk < 0 {
			n, adv := r.lengthHeader(b, '$')
			if adv == 0 {
				line, lineAdv, err := r.line(b)
				if lineAdv == 0 {
					return false, err
				}
				if len(line) == 0 || line[0] != '$' {
					return false, protoErrf("expected '$', got %q", firstByte(line))
				}
				n, adv = parseLength(line[1:]), lineAdv
			}
			if n < 0 || n > MaxArgLen {
				return false, protoErrf("invalid bulk length")
			}
			if r.total+int(n) > MaxCommandBytes {
				return false, protoErrf("command payload exceeds %d bytes", MaxCommandBytes)
			}
			r.total += int(n)
			r.pos += adv
			r.bulk = int(n)
		}
		// The payload is stepped over, not looked at. CRLF follows; a
		// bare LF is tolerated as it is on lines.
		end := r.pos + r.bulk
		if end >= len(b) {
			return false, nil
		}
		adv := 1
		if b[end] == '\r' {
			if end+1 == len(b) {
				return false, nil
			}
			end, adv = end+1, 2
		}
		if b[end] != '\n' {
			return false, protoErrf("expected CRLF after bulk payload")
		}
		r.scanned += adv
		r.spans = append(r.spans, span{uint32(r.pos), uint32(r.bulk)})
		r.pos += r.bulk + adv
		r.bulk = -1
	}

	first := len(r.args)
	for _, s := range r.spans {
		r.args = append(r.args, b[s.off:s.off+s.n:s.off+s.n])
	}
	r.consume(cmd, first)
	return true, nil
}

// consume hands cmd the arguments from args[first:], steps over the command
// they were decoded from and forgets its scan.
func (r *Reader) consume(cmd *Command, first int) {
	cmd.Args = r.args[first:len(r.args):len(r.args)]
	r.r += r.pos
	r.pos, r.seen, r.want, r.bulk, r.total = 0, 0, -1, -1, 0
	r.spans = r.spans[:0]
}

// lengthHeader is the fast path for the one header shape real clients send,
// tried once per header: the type byte, one to seven digits, CRLF, at pos. It
// returns the length and the bytes the header occupies, or adv == 0 for
// anything else — another shape, a malformed one, a header not yet whole —
// which the line grammar then decides. Seven digits cannot overflow and
// cover every length in bounds.
func (r *Reader) lengthHeader(b []byte, typ byte) (n int64, adv int) {
	b = b[r.pos:]
	if r.seen > 0 || len(b) < 4 || b[0] != typ {
		return 0, 0
	}
	i := 1
	for ; i < 8 && i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		n = n*10 + int64(d)
	}
	r.scanned += i
	if i == 1 || i+1 >= len(b) || b[i] != '\r' || b[i+1] != '\n' {
		return 0, 0
	}
	return n, i + 2
}

// line returns the line at pos without its terminator, and the bytes it
// occupies with it. Lines may end in \r\n (standard) or bare \n (tolerated
// for inline use via netcat). While the terminator has not arrived it returns
// adv == 0 and remembers how far it looked.
func (r *Reader) line(b []byte) (line []byte, adv int, err error) {
	from := r.pos + r.seen
	limit := min(len(b), r.pos+maxInlineLen)
	i := bytes.IndexByte(b[from:limit], '\n')
	if i < 0 {
		if limit-r.pos == maxInlineLen {
			return nil, 0, protoErrf("line too long")
		}
		r.scanned += limit - from
		r.seen = limit - r.pos
		return nil, 0, nil
	}
	end := from + i
	r.scanned += end + 1 - from + end - r.pos // the search, and the caller's parse
	r.seen = 0
	line = b[r.pos:end]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, end + 1 - r.pos, nil
}

// inline decodes the plain text command form ("PING\r\n"), splitting the
// line on spaces and tabs. Quoting is not supported.
func (r *Reader) inline(cmd *Command, line []byte, adv int) (bool, error) {
	args := r.args // kept only if the whole line passes
	start := -1
	for i := 0; i <= len(line); i++ {
		if i < len(line) && line[i] != ' ' && line[i] != '\t' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			if i-start > MaxArgLen {
				return false, protoErrf("too big inline argument")
			}
			if len(args)-len(r.args) == MaxCommandArgs {
				return false, protoErrf("too many inline arguments")
			}
			args = append(args, line[start:i:i])
			start = -1
		}
	}
	first := len(r.args)
	r.args, r.pos = args, adv
	r.consume(cmd, first)
	return true, nil
}

func firstByte(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return string(b[:1])
}

// parseLength is parseInt for a length header: -1, which no length is, when
// b is not an integer.
func parseLength(b []byte) int64 {
	n, err := parseInt(b)
	if err != nil {
		return -1
	}
	return n
}

// parseInt parses a decimal integer from b without allocating.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 20 {
		return 0, errors.New("resp: bad integer")
	}
	neg := false
	i := 0
	switch b[0] {
	case '-':
		neg, i = true, 1
	case '+':
		i = 1
	}
	if i == len(b) {
		return 0, errors.New("resp: bad integer")
	}
	var n int64
	for ; i < len(b); i++ {
		d := b[i]
		if d < '0' || d > '9' {
			return 0, errors.New("resp: bad integer")
		}
		if n > (1<<62)/10 {
			return 0, errors.New("resp: integer overflow")
		}
		n = n*10 + int64(d-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Serialization. Reply writers append to a bufio.Writer; the server flushes
// once per pipelined batch. Integer replies go through a small on-stack
// scratch so the hot path (":1\r\n" per item) does not allocate.

var crlf = []byte("\r\n")

func writeSimple(w *bufio.Writer, s string) {
	w.WriteByte('+')
	w.WriteString(s)
	w.Write(crlf)
}

// writeError writes "-<msg>\r\n". Embedded CR/LF would desynchronize the
// stream, so they are replaced.
func writeError(w *bufio.Writer, msg string) {
	w.WriteByte('-')
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c == '\r' || c == '\n' {
			c = ' '
		}
		w.WriteByte(c)
	}
	w.Write(crlf)
}

func writeInt(w *bufio.Writer, n int64) {
	var scratch [24]byte
	b := append(scratch[:0], ':')
	b = strconv.AppendInt(b, n, 10)
	b = append(b, '\r', '\n')
	w.Write(b)
}

func writeBulk(w *bufio.Writer, payload []byte) {
	var scratch [24]byte
	b := append(scratch[:0], '$')
	b = strconv.AppendInt(b, int64(len(payload)), 10)
	b = append(b, '\r', '\n')
	w.Write(b)
	w.Write(payload)
	w.Write(crlf)
}

func writeBulkString(w *bufio.Writer, s string) {
	var scratch [24]byte
	b := append(scratch[:0], '$')
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, '\r', '\n')
	w.Write(b)
	w.WriteString(s)
	w.Write(crlf)
}

func writeBulkFloat(w *bufio.Writer, f float64) {
	writeBulkString(w, strconv.FormatFloat(f, 'g', -1, 64))
}

func writeArrayHeader(w *bufio.Writer, n int) {
	var scratch [24]byte
	b := append(scratch[:0], '*')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '\r', '\n')
	w.Write(b)
}

// writeMapHeader writes a RESP3 map header, degrading to a flat array of
// 2n elements on RESP2 connections.
func writeMapHeader(w *bufio.Writer, pairs int, proto int) {
	if proto >= 3 {
		var scratch [24]byte
		b := append(scratch[:0], '%')
		b = strconv.AppendInt(b, int64(pairs), 10)
		b = append(b, '\r', '\n')
		w.Write(b)
		return
	}
	writeArrayHeader(w, 2*pairs)
}

// writeCommand serializes a client command: an array of bulk strings.
func writeCommand(w *bufio.Writer, args [][]byte) {
	writeArrayHeader(w, len(args))
	for _, a := range args {
		writeBulk(w, a)
	}
}
