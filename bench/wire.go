package main

// The generator's own wire code: a RESP request encoder with a reply
// scanner, and a raw-TCP pipelined HTTP/1.1 client. It shares nothing with
// the product's codecs, so a later change to those cannot alter the
// instrument that measures them.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// replyError is an error the server answered in-band: a RESP "-ERR ..."
// line or an HTTP status other than 200.
type replyError struct{ msg string }

func (e *replyError) Error() string { return "server replied: " + e.msg }

func appendBulk(dst, payload []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(payload)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, payload...)
	return append(dst, '\r', '\n')
}

// appendRESPCommand appends the array "cmd filter key..." of bulk strings.
func appendRESPCommand(dst []byte, cmd, filter string, keys [][]byte) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(2+len(keys)), 10)
	dst = append(dst, '\r', '\n')
	dst = appendBulk(dst, []byte(cmd))
	dst = appendBulk(dst, []byte(filter))
	for _, k := range keys {
		dst = appendBulk(dst, k)
	}
	return dst
}

// readLine returns the next CRLF-terminated line without its terminator.
// The slice aliases the reader's buffer.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("line %q does not end in CRLF", line)
	}
	return line[:len(line)-2], nil
}

// readRESPVerdicts reads the reply to a BF.MADD or BF.MEXISTS of n items —
// an array of n integers — and appends one bool per item to out. An error
// reply comes back as *replyError with the stream still in frame; any other
// error means the stream is lost.
func readRESPVerdicts(br *bufio.Reader, n int, out []bool) ([]bool, error) {
	line, err := readLine(br)
	if err != nil {
		return out, err
	}
	if len(line) == 0 {
		return out, errors.New("empty reply line")
	}
	switch line[0] {
	case '-':
		return out, &replyError{string(line[1:])}
	case '*':
		if got, err := strconv.Atoi(string(line[1:])); err != nil || got != n {
			return out, fmt.Errorf("short reply: array header %q for %d items", line, n)
		}
	default:
		return out, fmt.Errorf("unexpected reply %q", line)
	}
	// Fast path: n elements of exactly ":0\r\n" or ":1\r\n", already
	// buffered. Anything else goes through the line reader, which names it.
	if elems, err := br.Peek(4 * n); err == nil && wellFormed(elems) {
		for i := 1; i < len(elems); i += 4 {
			out = append(out, elems[i] == '1')
		}
		_, err = br.Discard(4 * n)
		return out, err
	}
	for i := 0; i < n; i++ {
		if line, err = readLine(br); err != nil {
			return out, err
		}
		switch {
		case bytes.Equal(line, []byte(":1")):
			out = append(out, true)
		case bytes.Equal(line, []byte(":0")):
			out = append(out, false)
		default:
			return out, fmt.Errorf("unexpected array element %q", line)
		}
	}
	return out, nil
}

// wellFormed reports whether elems is a run of ":0\r\n" / ":1\r\n".
func wellFormed(elems []byte) bool {
	for i := 0; i+4 <= len(elems); i += 4 {
		if elems[i] != ':' || elems[i+1]|1 != '1' || elems[i+2] != '\r' || elems[i+3] != '\n' {
			return false
		}
	}
	return true
}

// appendJSONItems appends {"items":["key",...]}. Keys are the harness's own
// URL-shaped ASCII and need no escaping.
func appendJSONItems(dst []byte, keys [][]byte) []byte {
	dst = append(dst, `{"items":[`...)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, k...)
		dst = append(dst, '"')
	}
	return append(dst, ']', '}')
}

// appendHTTPHead appends the request line and headers of one HTTP/1.1
// request whose body, of bodyLen bytes, follows.
func appendHTTPHead(dst []byte, method, path, contentType string, bodyLen int) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\nContent-Type: "...)
	dst = append(dst, contentType...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(bodyLen), 10)
	return append(dst, "\r\n\r\n"...)
}

// readHTTPResponse reads one response and returns its status and its body,
// appended to body[:0]. It understands Content-Length and chunked bodies,
// the two framings a keep-alive HTTP/1.1 server can answer with.
func readHTTPResponse(br *bufio.Reader, body []byte) (int, []byte, error) {
	body = body[:0]
	line, err := readLine(br)
	if err != nil {
		return 0, body, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, body, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, body, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = readLine(br); err != nil {
			return status, body, err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return status, body, fmt.Errorf("bad header line %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil || length < 0 {
				return status, body, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	readN := func(n int) error {
		start := len(body)
		body = append(body, make([]byte, n)...)
		_, err := io.ReadFull(br, body[start:])
		return err
	}
	switch {
	case chunked:
		for {
			if line, err = readLine(br); err != nil {
				return status, body, err
			}
			size, err := strconv.ParseUint(string(line), 16, 31)
			if err != nil {
				return status, body, fmt.Errorf("bad chunk size %q", line)
			}
			if size == 0 {
				break
			}
			if err := readN(int(size)); err != nil {
				return status, body, err
			}
			if _, err := readLine(br); err != nil {
				return status, body, err
			}
		}
		// Trailer section: lines up to the blank one.
		for {
			if line, err = readLine(br); err != nil {
				return status, body, err
			}
			if len(line) == 0 {
				break
			}
		}
	case length >= 0:
		if err := readN(length); err != nil {
			return status, body, err
		}
	case status == 204 || status == 304:
		// No body by definition.
	default:
		return status, body, errors.New("response has neither Content-Length nor chunked framing")
	}
	return status, body, nil
}

// parsePresent reads n verdicts out of a test-batch answer
// {"present":[true,false,...]} and appends them to out.
func parsePresent(body []byte, n int, out []bool) ([]bool, error) {
	open := bytes.IndexByte(body, '[')
	if open < 0 || !bytes.HasPrefix(bytes.TrimLeft(body, " \t\r\n{"), []byte(`"present"`)) {
		return out, fmt.Errorf("unexpected test-batch answer %q", truncate(body))
	}
	rest := body[open+1:]
	got := 0
	for {
		switch {
		case bytes.HasPrefix(rest, []byte("true")):
			out, rest, got = append(out, true), rest[4:], got+1
		case bytes.HasPrefix(rest, []byte("false")):
			out, rest, got = append(out, false), rest[5:], got+1
		case len(rest) > 0 && rest[0] == ']':
			if got != n {
				return out, fmt.Errorf("short reply: %d verdicts for %d items", got, n)
			}
			return out, nil
		default:
			return out, fmt.Errorf("unexpected test-batch answer %q", truncate(body))
		}
		if len(rest) > 0 && rest[0] == ',' {
			rest = rest[1:]
		}
	}
}

func truncate(b []byte) []byte {
	if len(b) > 80 {
		return b[:80]
	}
	return b
}
