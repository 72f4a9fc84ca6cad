package httpapi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"evilbloom/internal/service"
)

// The six item routes (add, test, remove and their -batch forms) are the
// hot half of this plane, so they do not go through encoding/json: the body
// is read once into a pooled buffer, a scanner recognises the canonical
// request language and yields item views pointing into that buffer, and the
// answer is appended into a pooled output buffer. Any body the scanner does
// not recognise is handed, unmodified, to decodeFrom — the reflection path
// every other route uses — so status codes, error phrasings and accepted
// oddities are encoding/json's by construction, and a client that picks an
// encoding to dodge the scanner pays what it always paid.

// Pool hygiene: a scratch that grew past these is dropped instead of
// pooled, so one MaxBodyBytes body or one MaxBatch batch cannot pin its
// memory in every pooled entry for the life of the process.
const (
	maxPooledBody  = 64 << 10
	maxPooledItems = 4096
)

// scratch is the per-request working set of an item route.
type scratch struct {
	body  []byte   // the request body, as read
	items [][]byte // item views into body (fast path) or copies (slow path)
	dst   []bool   // verdicts
	out   []byte   // the rendered 200 body
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// putScratch returns sc to the pool. Nothing may hold an item view past
// this call: the engine's stores hash items and the WAL copies them. The
// pooled scratch holds none either (slots past len(sc.items) are always
// nil), so the slow path's item copies are not pinned by the pool.
func putScratch(sc *scratch) {
	if cap(sc.body) > maxPooledBody || cap(sc.items) > maxPooledItems {
		return
	}
	clear(sc.items)
	scratchPool.Put(sc)
}

// decodeItems reads the body of an item route and leaves its items in
// sc.items ({"items":[…]} when batch, else the one {"item":…}), answering
// the error itself when the request is malformed.
func (sc *scratch) decodeItems(w http.ResponseWriter, r *http.Request, batch bool) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if r.ContentLength > service.MaxBodyBytes {
		writeBodyTooLarge(w)
		return false
	}
	readErr := sc.readBody(w, r)
	if readErr == nil {
		var ok bool
		if sc.items, ok = scanItems(sc.items[:0], sc.body, batch); ok {
			return true
		}
	}
	// Slow path: the same bytes, then the same read error, through the
	// decoder the route used before it had a scanner.
	var rd io.Reader = bytes.NewReader(sc.body)
	if readErr != nil {
		rd = io.MultiReader(rd, errReader{readErr})
	}
	clear(sc.items) // what the scanner got to before it declined
	sc.items = sc.items[:0]
	if batch {
		var req batchRequest
		if !decodeFrom(w, rd, &req) {
			return false
		}
		for _, it := range req.Items {
			sc.items = append(sc.items, []byte(it))
		}
		return true
	}
	var req itemRequest
	if !decodeFrom(w, rd, &req) {
		return false
	}
	sc.items = append(sc.items, []byte(req.Item))
	return true
}

// readBody reads the request body into sc.body through MaxBytesReader,
// sizing the buffer from a declared Content-Length (already checked against
// MaxBodyBytes). It returns the error that ended the read, nil for EOF.
func (sc *scratch) readBody(w http.ResponseWriter, r *http.Request) error {
	rd := http.MaxBytesReader(w, r.Body, service.MaxBodyBytes)
	buf := sc.body[:0]
	// One spare byte lets the read that reports EOF land without growing.
	if need := max(r.ContentLength+1, 512); int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// errReader replays the error that cut a body short.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// reply sends sc.out as the 200 answer: explicit length, one Write. The
// headers are assigned under their canonical keys, which skips Header.Set's
// per-call canonicalisation.
func (sc *scratch) reply(w http.ResponseWriter) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(sc.out))}
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out) //nolint:errcheck // client gone; nothing to do
}

// jsonContentType is shared by every reply, so nothing may write to it; its
// capacity of one makes a Header.Add on it copy instead.
var jsonContentType = []string{"application/json"}

func writeBodyTooLarge(w http.ResponseWriter) {
	writeError(w, http.StatusRequestEntityTooLarge,
		fmt.Sprintf("request body exceeds %d bytes; split the batch", service.MaxBodyBytes))
}

// ---------------------------------------------------------------------------
// Rendering: the frozen response shapes, appended byte by byte. Each matches
// what json.Encoder writes for the corresponding wire struct, newline
// included.

func appendCounted(out []byte, key string, n int, count uint64) []byte {
	out = append(out, `{"`...)
	out = append(out, key...)
	out = append(out, `":`...)
	out = strconv.AppendInt(out, int64(n), 10)
	out = append(out, `,"count":`...)
	out = strconv.AppendUint(out, count, 10)
	return append(out, "}\n"...)
}

func appendBool(out []byte, v bool) []byte {
	if v {
		return append(out, "true"...)
	}
	return append(out, "false"...)
}

// appendBools appends [v0,v1,…]. An answer that is sent never has an empty
// vs (json would spell a nil slice null): ValidateItems refuses an empty
// batch before any verdict exists. out grows once; each verdict is one
// 8-byte store of "false," or "true," (padded), advancing 6 or 5 bytes, with
// no branch on the verdict, and the last comma becomes the bracket.
func appendBools(out []byte, vs []bool) []byte {
	out = append(out, '[')
	if len(vs) == 0 {
		return append(out, ']')
	}
	at := len(out)
	out = slices.Grow(out, 6*len(vs)+2)[:at+6*len(vs)+2]
	for _, v := range vs {
		u := bit(v)
		binary.LittleEndian.PutUint64(out[at:], boolWords[u])
		at += 6 - int(u)
	}
	out[at-1] = ']'
	return out[:at]
}

// boolWords holds "false," and "true," as little-endian words, by bit.
var boolWords = [2]uint64{
	binary.LittleEndian.Uint64([]byte("false,\x00\x00")),
	binary.LittleEndian.Uint64([]byte("true,\x00\x00\x00")),
}

// bit is v as 0 or 1, without a branch.
func bit(v bool) uint {
	var u uint
	if v {
		u = 1
	}
	return u
}

// ---------------------------------------------------------------------------
// Scanning.
//
// The language scanItems accepts, ws being JSON's four whitespace bytes:
//
//	body   = ws "{" ws key ws ":" ws value ws "}" ws
//	key    = `"items"` (batch) | `"item"`        — these exact bytes
//	value  = "[" ws "]" | "[" ws string { ws "," ws string } ws "]"  (batch)
//	       | string
//	string = '"' { char | escape } '"'
//	char   = any valid UTF-8 sequence except '"', '\' and bytes below 0x20
//	escape = `\"` `\\` `\/` `\b` `\f` `\n` `\r` `\t`
//	       | `\u` 4 hex digits, not a surrogate (D800–DFFF)
//
// That is every body json.Marshal emits for the request structs (Go
// escapes <, > and & as \u003c, \u003e, \u0026), and on it encoding/json
// decodes exactly the items this scanner yields. Everything else json
// accepts — other, duplicate, case-folded or escaped keys, null, surrogate
// pairs, invalid UTF-8 (rewritten to U+FFFD), bytes after the closing
// brace — and everything it rejects is left to it.

// scanItems appends the body's items to items as views into body, decoding
// escapes in place (a decoded string is never longer than its spelling).
// body is modified only when the whole of it was accepted, so a refused
// body reaches the slow path as it arrived.
func scanItems(items [][]byte, body []byte, batch bool) ([][]byte, bool) {
	key := `"item"`
	if batch {
		key = `"items"`
	}
	i, ok := expect(body, 0, '{')
	if !ok {
		return items, false
	}
	i = skipWS(body, i)
	if !bytes.HasPrefix(body[i:], []byte(key)) {
		return items, false
	}
	if i, ok = expect(body, i+len(key), ':'); !ok {
		return items, false
	}
	escaped := false
	if !batch {
		i = skipWS(body, i)
		end, esc := scanString(body, i)
		if end < 0 {
			return items, false
		}
		items, escaped, i = append(items, body[i+1:end]), esc, end+1
	} else {
		if i, ok = expect(body, i, '['); !ok {
			return items, false
		}
		j, closed := expect(body, i, ']')
		for i = j; !closed; {
			end, esc := scanString(body, i)
			if end < 0 {
				return items, false
			}
			items, escaped = append(items, body[i+1:end]), escaped || esc
			if i = skipWS(body, end+1); i == len(body) {
				return items, false
			}
			switch body[i] {
			case ',':
				i = skipWS(body, i+1)
			case ']':
				closed = true
				i++
			default:
				return items, false
			}
		}
	}
	if i, ok = expect(body, i, '}'); !ok {
		return items, false
	}
	if skipWS(body, i) != len(body) {
		return items, false
	}
	if escaped {
		for k, it := range items {
			if at := bytes.IndexByte(it, '\\'); at >= 0 {
				items[k] = unescape(it, at)
			}
		}
	}
	return items, true
}

func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// expect skips whitespace and consumes c, returning the index after it.
func expect(b []byte, i int, c byte) (int, bool) {
	i = skipWS(b, i)
	if i == len(b) || b[i] != c {
		return i, false
	}
	return i + 1, true
}

// plain marks the bytes a string may hold as themselves: printable ASCII
// except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescaped maps the byte after a backslash to the byte it spells, 0 for
// none ('u' is handled apart).
var unescaped = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// scanString validates the string whose opening quote is b[i] and returns
// the index of its closing quote, -1 if it is not a string of the language,
// and whether it holds an escape. It writes nothing.
//
// Plain runs are skipped a little-endian word at a time: special flags the
// bytes that are not plain, a clean word advances 8, and otherwise the scan
// lands on the lowest flagged byte, which is always a true one, and the byte
// switch decides it. Under 8 bytes from the end the switch takes every byte.
func scanString(b []byte, i int) (end int, escaped bool) {
	if i >= len(b) || b[i] != '"' {
		return -1, false
	}
	for i++; ; {
		for i+8 <= len(b) {
			if m := special(binary.LittleEndian.Uint64(b[i:])); m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				break
			}
			i += 8
		}
		if i == len(b) {
			return -1, false
		}
		c := b[i]
		switch {
		case c == '"': // where the word scan lands most often
			return i, escaped
		case plain[c]:
			i++
		case c == '\\' && i+1 < len(b) && b[i+1] == 'u':
			if _, ok := hex4(b, i+2); !ok {
				return -1, false
			}
			escaped = true
			i += 6
		case c == '\\' && i+1 < len(b) && unescaped[b[i+1]] != 0:
			escaped = true
			i += 2
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return -1, false
			}
			i += size
		default: // control byte, unknown or truncated escape
			return -1, false
		}
	}
}

// Byte-lane constants of special.
const (
	lanes01 = 0x0101010101010101
	lanes80 = 0x8080808080808080
)

// special sets the top bit of each byte of the little-endian word w that is
// not plain. A byte's top bit is set in w from 0x80 up, and after taking
// 0x20 from each byte, below 0x20; xored with '"' or '\\', the quote and
// the backslash become 0, and taking 1 sets their top bits. Bytes from 0x80
// up may flag in the subtractions too, but w flags them anyway. A
// subtraction's borrow can also flag a byte above a true one, never below
// the lowest: so the lowest flag is exact, and it is the only one
// scanString reads.
func special(w uint64) uint64 {
	ctl := w - lanes01*0x20
	q := (w ^ lanes01*'"') - lanes01
	bs := (w ^ lanes01*'\\') - lanes01
	return (w | ctl | q | bs) & lanes80
}

// hex4 decodes the four hex digits at b[i:], refusing surrogates.
func hex4(b []byte, i int) (rune, bool) {
	if i+4 > len(b) {
		return 0, false
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	if 0xD800 <= r && r <= 0xDFFF {
		return 0, false
	}
	return r, true
}

// unescape decodes, in place, a string scanString accepted whose first
// backslash is at it[at]. The write index never passes the read index.
func unescape(it []byte, at int) []byte {
	w := at
	for r := at; r < len(it); {
		c := it[r]
		switch {
		case c != '\\':
			it[w] = c
			w++
			r++
		case it[r+1] == 'u':
			ch, _ := hex4(it, r+2)
			w += utf8.EncodeRune(it[w:], ch)
			r += 6
		default:
			it[w] = unescaped[it[r+1]]
			w++
			r += 2
		}
	}
	return it[:w]
}
