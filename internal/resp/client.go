package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// Reply is one decoded server reply. Type is the RESP type byte: '+' simple
// string, '-' error, ':' integer, '$' bulk string, '*' array, '%' map
// (delivered as a flat Elems list of 2n entries), ',' double, '_' null.
type Reply struct {
	Type   byte
	Str    string
	Int    int64
	Double float64
	Null   bool
	Elems  []Reply
}

// Err returns the reply as an error when it is an error reply.
func (r *Reply) Err() error {
	if r.Type == '-' {
		return errors.New(r.Str)
	}
	return nil
}

// IsBusy reports whether the reply is the rate-limit refusal (-BUSY ...),
// the RESP rendering of HTTP 429.
func (r *Reply) IsBusy() bool {
	return r.Type == '-' && strings.HasPrefix(r.Str, "BUSY")
}

// BusyRetrySeconds parses the "retry after Ns" tail of a -BUSY reply.
func (r *Reply) BusyRetrySeconds() (int64, bool) {
	const marker = "retry after "
	i := strings.LastIndex(r.Str, marker)
	if !r.IsBusy() || i < 0 {
		return 0, false
	}
	tail := strings.TrimSuffix(r.Str[i+len(marker):], "s")
	secs, err := strconv.ParseInt(tail, 10, 64)
	if err != nil {
		return 0, false
	}
	return secs, true
}

// Client is a pipelined RESP client: queue commands with Send, push them
// with Flush, collect replies in order with Receive. Do is the synchronous
// convenience for control commands. Not safe for concurrent use; attack
// drivers hold one Client per connection.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	pending int
}

// Dial connects to a RESP server at addr (host:port).
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialTimeout connects with a dial timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, readerBufSize),
		bw:   bufio.NewWriterSize(conn, 32<<10),
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Pending reports how many queued or in-flight commands still await a
// Receive.
func (c *Client) Pending() int { return c.pending }

// Send queues one command built from string arguments.
func (c *Client) Send(args ...string) {
	writeArrayHeader(c.bw, len(args))
	for _, a := range args {
		writeBulkString(c.bw, a)
	}
	c.pending++
}

// SendArgs queues one command built from byte-slice arguments; the bytes
// are written immediately, so callers may reuse them after the call.
func (c *Client) SendArgs(args [][]byte) {
	writeCommand(c.bw, args)
	c.pending++
}

// SendItems queues "cmd filter item..." without assembling an argument
// slice — the attack campaigns' hot path.
func (c *Client) SendItems(cmd, filter string, items [][]byte) {
	writeArrayHeader(c.bw, 2+len(items))
	writeBulkString(c.bw, cmd)
	writeBulkString(c.bw, filter)
	for _, it := range items {
		writeBulk(c.bw, it)
	}
	c.pending++
}

// Flush pushes every queued command to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// Receive reads the next reply in order.
func (c *Client) Receive() (*Reply, error) {
	if c.pending == 0 {
		return nil, errors.New("resp: Receive with no pending command")
	}
	r := new(Reply)
	if err := readReply(c.br, r, 0); err != nil {
		return nil, err
	}
	c.pending--
	return r, nil
}

// Do sends one command and waits for its reply, first draining any replies
// still pending from earlier Sends (they are discarded).
func (c *Client) Do(args ...string) (*Reply, error) {
	c.Send(args...)
	if err := c.Flush(); err != nil {
		return nil, err
	}
	var last *Reply
	for c.pending > 0 {
		r, err := c.Receive()
		if err != nil {
			return nil, err
		}
		last = r
	}
	return last, nil
}

// maxReplyDepth bounds nesting when decoding replies — no legitimate server
// reply here nests deeper.
const maxReplyDepth = 8

func readReply(br *bufio.Reader, r *Reply, depth int) error {
	if depth > maxReplyDepth {
		return errors.New("resp: reply nested too deeply")
	}
	line, err := readReplyLine(br)
	if err != nil {
		return err
	}
	if len(line) == 0 {
		return errors.New("resp: empty reply line")
	}
	r.Type = line[0]
	body := line[1:]
	switch r.Type {
	case '+', '-':
		r.Str = string(body)
	case ':':
		r.Int, err = parseInt(body)
		return err
	case ',':
		r.Double, err = strconv.ParseFloat(string(body), 64)
		return err
	case '_':
		r.Null = true
	case '$':
		n, err := parseInt(body)
		if err != nil {
			return err
		}
		if n == -1 {
			r.Null = true
			return nil
		}
		if n < 0 || n > MaxCommandBytes {
			return fmt.Errorf("resp: bad bulk length %d", n)
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return err
		}
		r.Str = string(buf[:n])
	case '*', '%', '>':
		n, err := parseInt(body)
		if err != nil {
			return err
		}
		if r.Type == '%' {
			n *= 2
		}
		if n == -1 {
			r.Null = true
			return nil
		}
		if n < 0 || n > int64(MaxCommandArgs)*2 {
			return fmt.Errorf("resp: bad aggregate length %d", n)
		}
		r.Elems = make([]Reply, n)
		for i := range r.Elems {
			if err := readReply(br, &r.Elems[i], depth+1); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("resp: unknown reply type %q", r.Type)
	}
	return nil
}

func readReplyLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// Format renders a reply the way redis-cli does, for the resp-cli
// subcommand and smoke scripts.
func (r *Reply) Format() string {
	var sb strings.Builder
	r.format(&sb, "")
	return sb.String()
}

func (r *Reply) format(sb *strings.Builder, indent string) {
	switch r.Type {
	case '+':
		sb.WriteString(r.Str)
	case '-':
		sb.WriteString("(error) ")
		sb.WriteString(r.Str)
	case ':':
		sb.WriteString("(integer) ")
		sb.WriteString(strconv.FormatInt(r.Int, 10))
	case ',':
		sb.WriteString("(double) ")
		sb.WriteString(strconv.FormatFloat(r.Double, 'g', -1, 64))
	case '_':
		sb.WriteString("(nil)")
	case '$':
		if r.Null {
			sb.WriteString("(nil)")
			return
		}
		sb.WriteString(strconv.Quote(r.Str))
	case '*', '%', '>':
		if len(r.Elems) == 0 {
			sb.WriteString("(empty array)")
			return
		}
		for i := range r.Elems {
			if i > 0 {
				sb.WriteByte('\n')
			}
			sb.WriteString(indent)
			sb.WriteString(strconv.Itoa(i + 1))
			sb.WriteString(") ")
			r.Elems[i].format(sb, indent+"   ")
		}
	}
}
