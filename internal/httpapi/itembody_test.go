package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"

	"evilbloom/internal/engine"
	"evilbloom/internal/service"
)

// The scanner's language, case by case: what it yields when it accepts, and
// that it declines — leaving the bytes alone — everything else.
func TestScanItems(t *testing.T) {
	accepted := []struct {
		name, body string
		batch      bool
		want       []string
	}{
		{"batch", `{"items":["a","bc"]}`, true, []string{"a", "bc"}},
		{"single", `{"item":"a"}`, false, []string{"a"}},
		{"whitespace everywhere", " \t\r\n{ \"items\" : [ \"a\" , \"b\" ] } \n", true, []string{"a", "b"}},
		{"empty array", `{"items":[ ]}`, true, nil},
		{"empty item", `{"items":["",""]}`, true, []string{"", ""}},
		{"simple escapes", `{"item":"\"\\\/\b\f\n\r\t"}`, false, []string{"\"\\/\b\f\n\r\t"}},
		{"go html escapes", `{"items":["a\u0026b\u003c\u003E"]}`, true, []string{"a&b<>"}},
		{"two-byte escape", `{"item":"caf\u00e9"}`, false, []string{"café"}},
		{"three-byte escape", `{"item":"\u20ac\u2028"}`, false, []string{"\u20ac\u2028"}},
		{"escaped NUL", `{"item":"a\u0000b"}`, false, []string{"a\x00b"}},
		{"raw UTF-8", `{"items":["café","€","😀","��"]}`, true, []string{"café", "€", "😀", "��"}},
		{"escape then plain then escape", `{"items":["x\ny\tz","plain","\u00e9\u00E9"]}`, true, []string{"x\ny\tz", "plain", "éé"}},
	}
	for _, tc := range accepted {
		body := []byte(tc.body)
		items, ok := scanItems(nil, body, tc.batch)
		if !ok {
			t.Errorf("%s: declined %q", tc.name, tc.body)
			continue
		}
		var got []string
		for _, it := range items {
			got = append(got, string(it))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: items %q, want %q", tc.name, got, tc.want)
		}
	}

	declined := []struct {
		name, body string
		batch      bool
	}{
		{"empty body", ``, true},
		{"wrong key for route", `{"item":"a"}`, true},
		{"wrong key for route", `{"items":["a"]}`, false},
		{"case-folded key", `{"Items":["a"]}`, true},
		{"upper key", `{"ITEM":"a"}`, false},
		{"escaped key", `{"\u0069tems":["a"]}`, true},
		{"duplicate key", `{"items":["a"],"items":["b"]}`, true},
		{"unknown key", `{"items":["a"],"x":1}`, true},
		{"no key", `{}`, true},
		{"null value", `{"items":null}`, true},
		{"null item", `{"item":null}`, false},
		{"null element", `{"items":[null]}`, true},
		{"number element", `{"items":[1]}`, true},
		{"nested", `{"items":[["a"]]}`, true},
		{"object item", `{"item":{"a":"b"}}`, false},
		{"trailing comma", `{"items":["a",]}`, true},
		{"leading comma", `{"items":[,"a"]}`, true},
		{"trailing garbage", `{"items":["a"]}x`, true},
		{"second value", `{"item":"a"}{"item":"b"}`, false},
		{"truncated in string", `{"items":["a`, true},
		{"truncated in escape", `{"item":"a\`, false},
		{"truncated in \\u", `{"item":"\u00`, false},
		{"truncated after array", `{"items":["a"]`, true},
		{"bad escape", `{"item":"\x41"}`, false},
		{"bad hex", `{"item":"\u00zz"}`, false},
		{"surrogate pair", `{"item":"\ud83d\ude00"}`, false},
		{"lone surrogate", `{"item":"\udc00"}`, false},
		{"invalid UTF-8", "{\"item\":\"a\xffb\"}", false},
		{"truncated UTF-8", "{\"item\":\"a\xe2\x82\"}", false},
		{"UTF-8 surrogate", "{\"item\":\"\xed\xa0\x80\"}", false},
		{"overlong UTF-8", "{\"item\":\"\xc0\xaf\"}", false},
		{"NUL byte", "{\"item\":\"a\x00b\"}", false},
		{"raw newline", "{\"item\":\"a\nb\"}", false},
		{"raw tab in batch", "{\"items\":[\"a\tb\"]}", true},
		{"BOM", "\xef\xbb\xbf{\"item\":\"a\"}", false},
		{"vertical tab as whitespace", "{\v\"item\":\"a\"}", false},
		// Accepted items before the offending one must stay untouched.
		{"escape then refusal", `{"items":["a\u0026b","\ud800"]}`, true},
	}
	for _, tc := range declined {
		body := []byte(tc.body)
		if items, ok := scanItems(nil, body, tc.batch); ok {
			t.Errorf("%s: accepted %q as %q", tc.name, tc.body, items)
		}
		if string(body) != tc.body {
			t.Errorf("%s: a declined body was modified: %q -> %q", tc.name, tc.body, body)
		}
	}
}

// TestScanStringMatchesByteLoop holds the word-at-a-time scanString to the
// byte loop it replaced: (end, escaped) agree for each piece below at every
// position 0-16 of plain strings of length 0-24, each string opening at
// buffer offsets 0-7 and each buffer cut at every length, which covers the
// tail under 8 bytes, words straddling the end and unterminated strings.
func TestScanStringMatchesByteLoop(t *testing.T) {
	// Every single byte, multi-byte UTF-8 valid and not, and escapes valid
	// and not, whose bytes straddle a word boundary at some position.
	var pieces []string
	for c := 0; c < 256; c++ {
		pieces = append(pieces, string([]byte{byte(c)}))
	}
	pieces = append(pieces,
		"é", "€", "😀", "\u2028", "\xef\xbf\xbd",
		"\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xe2\x82", "\xf0\x9f\x98", "\x80\x80", "\xe2\x82\x22",
		`\"`, `\\`, `\/`, `\n`, `\u0026`, `\u00e9`, `\u00E9`, `\u20ac`,
		`\x41`, `\ud800`, `\u00z9`, `\u`, `\u00`, `\\\"`, `\\"`,
	)
	const filler = "abcdefghijklmnopqrstuvwxyz0123456789"
	const prefix = "\\\"\x00\xff\"\\\"\x01" // no byte before the start may count
	const tail = `,"é\"x"]}`
	check := func(content string) {
		for off := 0; off < 8; off++ {
			body := []byte(prefix[:off] + `"` + content + `"` + tail)
			for cut := 0; cut <= len(body); cut++ {
				b := body[:cut:cut]
				end, esc := scanString(b, off)
				wantEnd, wantEsc := scanStringByteLoop(b, off)
				if end != wantEnd || esc != wantEsc {
					t.Fatalf("scanString(%q, %d) = (%d, %v), the byte loop gives (%d, %v)",
						b, off, end, esc, wantEnd, wantEsc)
				}
			}
		}
	}
	check("")
	for _, piece := range pieces {
		for pos := 0; pos <= 16; pos++ {
			for n := pos + len(piece); n <= 24; n++ {
				check(filler[:pos] + piece + filler[pos:n-len(piece)])
			}
		}
	}
}

// FuzzScanString holds scanString to the byte loop on arbitrary bytes: a
// quote is spliced in at the start offset, so most inputs are scanned.
func FuzzScanString(f *testing.F) {
	for _, s := range []string{
		"", "a", "abcdefgh", `abcdefg"`, `abcdefgh\u0026ijk"`, "caf\xc3\xa9 \xe2\x82\xac\"",
		"1234567\\\"89\"", "\x1f", "\xff\"", `\ud800"`, `\u00e9\u00E9"`,
	} {
		f.Add([]byte(s), uint8(0))
		f.Add([]byte("0123456"+s), uint8(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, start uint8) {
		at := min(int(start), len(data))
		b := append(append(append([]byte(nil), data[:at]...), '"'), data[at:]...)
		end, esc := scanString(b, at)
		wantEnd, wantEsc := scanStringByteLoop(b, at)
		if end != wantEnd || esc != wantEsc {
			t.Fatalf("scanString(%q, %d) = (%d, %v), the byte loop gives (%d, %v)",
				b, at, end, esc, wantEnd, wantEsc)
		}
	})
}

// BenchmarkScanItems scans a 64-key test-batch body of bench-shaped keys,
// the body http-read-small sends: ns per item, no allocation.
func BenchmarkScanItems(b *testing.B) {
	body := batchBody(benchShapedKeys(64)...)
	items := make([][]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if items, ok = scanItems(items[:0], body, true); !ok || len(items) != 64 {
			b.Fatal("declined")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/item")
}

// ---------------------------------------------------------------------------
// Differential fuzzing against the pre-scanner handlers.

// newItemFixture returns a server with a counting filter "f" and a bloom
// "default", a few items preloaded into each, and a budget small enough that
// a modest batch draws a 429.
func newItemFixture(t testing.TB) *Server {
	t.Helper()
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	s := NewRegistryServer(reg)
	if err := s.Engine().ConfigureRateLimit(engine.RateLimitConfig{MutationsPerSec: 0.001, Burst: 8}); err != nil {
		t.Fatal(err)
	}
	seeder := engine.AnonymousFromRemoteAddr("203.0.113.9:1")
	preload := [][]byte{[]byte("a"), []byte("b"), []byte("café&x")}
	for name, variant := range map[string]service.Variant{
		"f":                       service.VariantCounting,
		service.DefaultFilterName: service.VariantBloom,
	} {
		cfg := testConfig(service.ModeNaive, 2)
		cfg.Variant = variant
		cfg.Capacity = 1000
		if _, err := s.eng.CreateFilter(name, cfg); err != nil {
			t.Fatal(err)
		}
		ref, _ := s.eng.Lookup(name)
		if _, err := s.eng.AddBatch(seeder, ref, preload); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// itemRequestFor builds the request of one item route; chunked hides the
// length, as a streaming client would.
func itemRequestFor(path string, body []byte, chunked bool) *http.Request {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if chunked {
		r.ContentLength = -1
	}
	return r
}

// sameAnswer compares what a client can see of two answers.
func sameAnswer(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Errorf("%s: status %d, the oracle answers %d (%s)", what, got.Code, want.Code, want.Body)
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if g, w := got.Header().Values(h), want.Header().Values(h); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s %q, the oracle answers %q", what, h, g, w)
		}
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s: body %q, the oracle answers %q", what, got.Body, want.Body)
	}
}

func batchBody(items ...string) []byte {
	b, err := json.Marshal(batchRequest{Items: items})
	if err != nil {
		panic(err)
	}
	return b
}

func FuzzItemBody(f *testing.F) {
	seeds := []string{
		`{"items":["a","zzz"]}`,
		`{"item":"a"}`,
		`{"item":"caf\u00e9\u0026x"}`,
		`{"items":["caf\u00e9\u0026x","café&x"]}`,
		`{"item":"\ud83d\ude00"}`,
		`{"item":"\udc00"}`,
		"{\"item\":\"a\xffb\"}",
		"{\"items\":[\"a\x00b\",\"\x1f\"]}",
		`{"item":"a\u0000b"}`,
		`{"Items":["a"]}`,
		`{"ITEM":"a"}`,
		`{"items":["a"],"items":["b","c"]}`,
		`{"items":null}`,
		`{"item":null}`,
		`{"items":[]}`,
		`{"items":[["a"]]}`,
		`{"item":{"item":"a"}}`,
		" \n\t{ \"items\" : [ \"a\" , \"b\" ] }\r\n ",
		`{"items":["a"]} trailing`,
		`{"item":"a"}{"item":"b"}`,
		`{"items":["a","b`,
		`{"item":"\u00`,
		`{"item":""}`,
		`{"items":["a","","b"]}`,
		`{"items":["a"],"extra":1}`,
		`{"items":["1","2","3","4","5","6","7","8","9"]}`, // one past the burst: 429
		``,
		`[]`,
		`"a"`,
		string(batchBody(strings.Repeat("x", service.MaxItemLen+1))),
		string(batchBody("ok", strings.Repeat("é", service.MaxItemLen/2), strings.Repeat("&", service.MaxItemLen+1))),
		string(batchBody(make([]string, service.MaxBatch+1)...)),
		string(batchBody(strings.Split(strings.Repeat("k,", service.MaxBatch)+"k", ",")...)),
	}
	for i, s := range seeds {
		f.Add(uint8(i), []byte(s))
		f.Add(uint8(i+1), []byte(s))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		op := itemOps[int(route)%len(itemOps)]
		filter := "f"
		if route&0x80 != 0 {
			filter = service.DefaultFilterName
		}
		path := "/v2/filters/" + filter + "/" + op
		chunked := route&0x40 != 0
		what := fmt.Sprintf("%s (chunked=%v) %q", path, chunked, body)

		// Two servers in the same state: one asked through the mux and the
		// scanner-backed handlers, one through the handlers as they were.
		subject, oracle := newItemFixture(t), newItemFixture(t)
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		subject.ServeHTTP(got, itemRequestFor(path, body, chunked))
		ref, err := oracle.eng.Lookup(filter)
		if err != nil {
			t.Fatal(err)
		}
		oracleItemOp(oracle, want, itemRequestFor(path, body, chunked), ref, op)
		sameAnswer(t, what, got, want)
		// The same item bytes reached the filter.
		sref, _ := subject.eng.Lookup(filter)
		if g, w := subject.eng.Stats(sref).Stats, oracle.eng.Stats(ref).Stats; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: filter state %+v, the oracle's is %+v", what, g, w)
		}

		// Whenever the scanner accepts, encoding/json accepts the same items.
		for _, batch := range []bool{false, true} {
			scratch := bytes.Clone(body)
			items, ok := scanItems(nil, scratch, batch)
			if !ok {
				if !bytes.Equal(scratch, body) {
					t.Errorf("scanItems(batch=%v) declined %q but rewrote it to %q", batch, body, scratch)
				}
				continue
			}
			var wantItems []string
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if batch {
				var req batchRequest
				err = dec.Decode(&req)
				wantItems = req.Items
			} else {
				var req itemRequest
				err = dec.Decode(&req)
				wantItems = []string{req.Item}
			}
			if err != nil {
				t.Fatalf("scanItems(batch=%v) accepted %q, encoding/json refuses it: %v", batch, body, err)
			}
			if len(items) != len(wantItems) {
				t.Fatalf("scanItems(batch=%v) on %q: %d items, encoding/json decodes %d", batch, body, len(items), len(wantItems))
			}
			for i := range items {
				if string(items[i]) != wantItems[i] {
					t.Fatalf("scanItems(batch=%v) on %q: item %d is %q, encoding/json decodes %q", batch, body, i, items[i], wantItems[i])
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Limit precedence.

// untouchable fails the test when read: the body of a request that must be
// refused on its declared length alone.
type untouchable struct{ t *testing.T }

func (u untouchable) Read([]byte) (int, error) {
	u.t.Error("the body was read")
	return 0, io.EOF
}

// paddedBatch is a batch body of exactly n bytes: items, then spaces, then
// the closing brace as the last byte, so the JSON value ends where the body
// does. prefix selects the code path: `{"items":[` scans, `{"Items":[` (any
// spelling only encoding/json folds) does not.
func paddedBatch(prefix string, n int) []byte {
	b := append([]byte(prefix), `"a","zzz"]`...)
	b = append(b, bytes.Repeat([]byte{' '}, n-len(b)-1)...)
	return append(b, '}')
}

func TestItemBodyLimitPrecedence(t *testing.T) {
	tooLarge := fmt.Sprintf("{\"error\":\"request body exceeds %d bytes; split the batch\"}\n", service.MaxBodyBytes)
	tooMany := fmt.Sprintf("{\"error\":\"batch exceeds %d items\"}\n", service.MaxBatch)
	badItem := func(i int) string {
		return fmt.Sprintf("{\"error\":\"item %d empty or exceeds %d bytes\"}\n", i, service.MaxItemLen)
	}
	const path = "/v2/filters/f/test-batch"

	t.Run("declared length beyond MaxBodyBytes is refused unread", func(t *testing.T) {
		s := newItemFixture(t)
		for _, op := range itemOps {
			r := httptest.NewRequest(http.MethodPost, "/v2/filters/f/"+op, untouchable{t})
			r.ContentLength = service.MaxBodyBytes + 1
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusRequestEntityTooLarge || w.Body.String() != tooLarge {
				t.Errorf("%s: %d %q, want 413 %q", op, w.Code, w.Body, tooLarge)
			}
		}
		// At the limit the declared length is honoured and the body read.
		w := httptest.NewRecorder()
		s.ServeHTTP(w, itemRequestFor(path, paddedBatch(`{"items":[`, service.MaxBodyBytes), false))
		if w.Code != http.StatusOK || w.Body.String() != "{\"present\":[true,false]}\n" {
			t.Errorf("a body of exactly MaxBodyBytes: %d %q", w.Code, w.Body)
		}
	})

	// Everything below holds on both code paths and agrees with the oracle.
	for _, cp := range []struct{ name, key string }{
		{"scanner", `{"items":[`},
		{"encoding/json", `{"Items":[`},
	} {
		items := func(its ...string) []byte {
			return append([]byte(cp.key), bytes.TrimPrefix(batchBody(its...), []byte(`{"items":[`))...)
		}
		if _, ok := scanItems(nil, items("a"), true); ok != (cp.name == "scanner") {
			t.Fatalf("%s: the probe body takes the other code path", cp.name)
		}
		many := make([]string, service.MaxBatch+1)
		for i := range many {
			many[i] = "k"
		}
		full := many[:service.MaxBatch]
		// An item of exactly MaxItemLen decoded bytes that is spelled with
		// many more (every é as \u00e9, every & as \u0026), and one
		// a byte longer: length and index are those of the decoded items.
		atLimit := `"` + strings.Repeat(`\u00e9`, service.MaxItemLen/2) + `"`
		overLimit := `"` + strings.Repeat(`\u00e9`, service.MaxItemLen/2) + `\u0026"`
		escaped := func(last string) []byte {
			return []byte(cp.key + `"a\u0026b","\n",` + last + `]}`)
		}
		manyWithBad := append([]string{""}, many[1:]...)

		cases := []struct {
			name     string
			body     []byte
			chunked  bool
			wantCode int
			wantBody string
		}{
			{"chunked body ending at MaxBodyBytes", paddedBatch(cp.key, service.MaxBodyBytes), true,
				200, "{\"present\":[true,false]}\n"},
			{"chunked body ending one byte later", paddedBatch(cp.key, service.MaxBodyBytes+1), true,
				413, tooLarge},
			{"MaxBatch items", items(full...), false, 200, ""},
			{"MaxBatch+1 items", items(many...), false, 400, tooMany},
			{"MaxBatch+1 items, the first one empty", items(manyWithBad...), false, 400, tooMany},
			{"item of MaxItemLen decoded bytes", escaped(atLimit), false,
				200, "{\"present\":[false,false,false]}\n"},
			{"item of MaxItemLen+1 decoded bytes", escaped(overLimit), false, 400, badItem(2)},
			{"raw item of MaxItemLen+1 bytes", items("a", "b", "c", strings.Repeat("x", service.MaxItemLen+1)), false,
				400, badItem(3)},
			{"empty item", items("a", ""), false, 400, badItem(1)},
			{"empty batch", []byte(cp.key + `]}`), false, 400, "{\"error\":\"empty batch\"}\n"},
		}
		for _, tc := range cases {
			t.Run(cp.name+"/"+tc.name, func(t *testing.T) {
				subject, oracle := newItemFixture(t), newItemFixture(t)
				got, want := httptest.NewRecorder(), httptest.NewRecorder()
				subject.ServeHTTP(got, itemRequestFor(path, tc.body, tc.chunked))
				ref, _ := oracle.eng.Lookup("f")
				oracleItemOp(oracle, want, itemRequestFor(path, tc.body, tc.chunked), ref, "test-batch")
				sameAnswer(t, tc.name, got, want)
				if got.Code != tc.wantCode {
					t.Errorf("status %d, want %d (%.80s)", got.Code, tc.wantCode, got.Body)
				}
				if tc.wantBody != "" && got.Body.String() != tc.wantBody {
					t.Errorf("body %.120q, want %q", got.Body, tc.wantBody)
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation gate.

// reusableWriter is a ResponseWriter that costs nothing per request.
type reusableWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *reusableWriter) Header() http.Header { return w.h }
func (w *reusableWriter) WriteHeader(c int)   { w.code = c }
func (w *reusableWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// rewindBody is a request body that can be served again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// benchShapedKeys returns n keys shaped like the benchmark's (bench/keys.go):
// URLs of 32 to 47 plain bytes, host and tail seeded noise.
func benchShapedKeys(n int) []string {
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, n)
	for i := range keys {
		x := rng.Uint64()
		keys[i] = fmt.Sprintf("http://h%03x.ex.org/a/%010x%016x", x>>52, i, x)[:32+x>>60]
	}
	return keys
}

// The scanner's reason to exist, as a regression gate: in steady state a
// 64-key batch through the whole handler — mux, scratch, scanner, engine,
// store, rendering — makes a handful of allocations per request, none per
// item (the reflection path spent about three per item, and until PR 19 the
// store's grouping half of one; measured now: 4 per test-batch, 3 per
// add-batch, all in net/http's and the mux's per-request bookkeeping and
// the Content-Length value). Two key sets: \u-escaped keys, and the plain
// URL keys the benchmark sends. encoding/json creeping back onto these
// routes, the store's batch path allocating again, or the reply allocating
// its Content-Type value per request again fails this.
func TestItemRoutesSteadyStateAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops entries under the race detector")
			}
		}
	}
	const keys = 64
	const maxAllocsPerItem = 0.07 // 4 per request pass, 5 do not
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	s := NewRegistryServer(reg)
	if _, err := s.eng.CreateFilter("f", testConfig(service.ModeNaive, 4)); err != nil {
		t.Fatal(err)
	}
	escaped := make([]string, keys)
	for i := range escaped {
		escaped[i] = fmt.Sprintf("http://e.example/path/%07d?q=a&r=<b>", i) // & < > are \u-escaped
	}
	for _, set := range []struct {
		name  string
		items []string
	}{
		{"escaped", escaped},
		{"plain", benchShapedKeys(keys)},
	} {
		payload := batchBody(set.items...)
		for _, op := range []string{"test-batch", "add-batch"} {
			body := &rewindBody{}
			r := httptest.NewRequest(http.MethodPost, "/v2/filters/f/"+op, nil)
			r.Body, r.ContentLength = body, int64(len(payload))
			w := &reusableWriter{h: http.Header{}}
			serve := func() {
				body.Reset(payload)
				clear(w.h)
				s.ServeHTTP(w, r)
				if w.code != http.StatusOK {
					t.Fatalf("%s %s answered %d", set.name, op, w.code)
				}
			}
			serve() // warm the pool
			perRequest := testing.AllocsPerRun(50, serve)
			t.Logf("%s %s: %.0f allocations per request, %.3f per item", set.name, op, perRequest, perRequest/keys)
			if perRequest/keys > maxAllocsPerItem {
				t.Errorf("%s %s allocates %.3f times per item in steady state, want ≤ %.2f", set.name, op, perRequest/keys, maxAllocsPerItem)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Pool hygiene.

// drainPool takes up to n scratches out of the pool.
func drainPool(n int) []*scratch {
	out := make([]*scratch, n)
	for i := range out {
		out[i] = scratchPool.Get().(*scratch)
	}
	return out
}

func TestScratchPoolHygiene(t *testing.T) {
	// Oversized scratches are dropped, not pooled.
	bigBody := &scratch{body: make([]byte, 0, maxPooledBody+1)}
	bigItems := &scratch{items: make([][]byte, 0, maxPooledItems+1)}
	putScratch(bigBody)
	putScratch(bigItems)
	for _, sc := range drainPool(64) {
		if sc == bigBody || sc == bigItems {
			t.Fatalf("a scratch past the caps (body %d, items %d) went back into the pool", cap(sc.body), cap(sc.items))
		}
	}

	// The same through the front door: one body past the cap, one batch past
	// the item cap, and batches the scanner declines midway or entirely (the
	// slow path's items are copies, which a pooled view would pin). Then
	// nothing in the pool is past either cap or holds a view in any slot.
	s := newItemFixture(t)
	large := paddedBatch(`{"items":[`, 4*maxPooledBody)
	many := make([]string, maxPooledItems+100)
	for i := range many {
		many[i] = "k" + strconv.Itoa(i)
	}
	declinedMidway := []byte(`{"items":["k1","k2","k3","` + "\\" + `ud800"]}`)
	declined := []byte(`{"Items":["k1","k2","k3"]}`)
	for _, body := range [][]byte{large, batchBody(many...), batchBody(many[:100]...), declinedMidway, declined} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, itemRequestFor("/v2/filters/f/test-batch", body, false))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	for _, sc := range drainPool(64) {
		if cap(sc.body) > maxPooledBody || cap(sc.items) > maxPooledItems {
			t.Errorf("pooled scratch with body cap %d, items cap %d", cap(sc.body), cap(sc.items))
		}
		for _, it := range sc.items[:cap(sc.items)] {
			if it != nil {
				t.Fatalf("pooled scratch still holds the view %q", it)
			}
		}
	}
}

// Nothing keeps an item view past the handler's return. Item slices point
// into a pooled buffer that the next request overwrites, so anything that
// held on to one — the store, the journal, the limiter — would show up here
// as a wrong verdict, a restart that replays other items than were
// acknowledged, or a mutation attributed to a garbled identity. Run with
// -race -count=10.
func TestItemViewsNotRetained(t *testing.T) {
	const (
		workers = 8
		rounds  = 40
		perReq  = 16
	)
	dir := t.TempDir()
	cfg := testConfig(service.ModeNaive, 4)
	cfg.Variant = service.VariantCounting
	cfg.Capacity = workers * rounds * perReq

	reg := service.NewRegistry()
	if _, err := reg.OpenDataDir(dir, service.SyncInterval); err != nil {
		t.Fatal(err)
	}
	s := NewRegistryServer(reg)
	if _, err := s.eng.CreateFilter("aud", cfg); err != nil {
		t.Fatal(err)
	}

	post := func(worker int, op string, body []byte) *httptest.ResponseRecorder {
		r := itemRequestFor("/v2/filters/aud/"+op, body, worker%2 == 0)
		r.RemoteAddr = fmt.Sprintf("10.0.0.%d:999", worker)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		return w
	}
	acked := make([][]string, workers) // per worker, the items whose add was acknowledged
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Distinct per worker and round; spelled with escapes on the
				// way in (the in-place unescape) and raw on the way back.
				raw := make([]string, perReq)
				for i := range raw {
					raw[i] = fmt.Sprintf("w%d/r%d/i%d?a&b=é<%s>", g, round, i, strings.Repeat("x", g*round%50))
				}
				w := post(g, "add-batch", batchBody(raw...))
				if want := fmt.Sprintf("{\"added\":%d,\"count\":", perReq); w.Code != 200 || !strings.HasPrefix(w.Body.String(), want) {
					t.Errorf("worker %d round %d: add-batch answered %d %s", g, round, w.Code, w.Body)
					return
				}
				acked[g] = append(acked[g], raw...)
				probe := []byte(`{"items":["` + strings.Join(raw, `","`) + `"]}`)
				w = post(g, "test-batch", probe)
				if want := `{"present":[true` + strings.Repeat(",true", perReq-1) + "]}\n"; w.Code != 200 || w.Body.String() != want {
					t.Errorf("worker %d round %d: its own adds read back as %d %s", g, round, w.Code, w.Body)
				}
				// Remove and re-add one item, so the journal's remove records
				// are replayed too.
				one, _ := json.Marshal(itemRequest{Item: raw[0]})
				if w = post(g, "remove", one); w.Code != 200 {
					t.Errorf("worker %d round %d: remove answered %d %s", g, round, w.Code, w.Body)
				}
				if w = post(g, "add", one); w.Code != 200 {
					t.Errorf("worker %d round %d: add answered %d %s", g, round, w.Code, w.Body)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The limiter attributed every mutation to the identity that made it.
	ref, _ := s.eng.Lookup("aud")
	clients := map[string]uint64{}
	for _, c := range s.eng.Clients(ref).Clients {
		clients[c.Client] = c.Allowed
	}
	for g := 0; g < workers; g++ {
		if got, want := clients[fmt.Sprintf("10.0.0.%d", g)], uint64(rounds*(perReq+2)); got != want {
			t.Errorf("client 10.0.0.%d was charged %d mutations, made %d (table: %v)", g, got, want, clients)
		}
	}

	// The filter holds exactly the acknowledged adds, before and after a
	// restart replays the journal.
	model, err := service.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, items := range acked {
		model.AddBatch(toBytes(items))
	}
	want := model.Stats()
	if got := s.eng.Stats(ref).Stats; !reflect.DeepEqual(got, want) {
		t.Errorf("live filter state %+v, the acknowledged adds give %+v", got, want)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := service.NewRegistry()
	defer reopened.Close() //nolint:errcheck // read-only from here on
	if n, err := reopened.OpenDataDir(dir, service.SyncInterval); err != nil || n != 1 {
		t.Fatalf("reopening %s: %d filters, %v", dir, n, err)
	}
	f, err := reopened.Get("aud")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Store().Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed filter state %+v, the acknowledged adds give %+v", got, want)
	}
	for g, items := range acked {
		for i, present := range f.Store().TestBatch(nil, toBytes(items)) {
			if !present {
				t.Fatalf("worker %d: acknowledged add %q is absent after the restart", g, items[i])
			}
		}
	}
}

// TestAppendBoolsMatchesJSON holds appendBools to encoding/json, after
// existing bytes and at every length up to 70 (its word stores run past
// the last verdict into the slack it grows), for every verdict mix.
func TestAppendBoolsMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 70; n++ {
		for trial := 0; trial < 20; trial++ {
			vs := make([]bool, n)
			for i := range vs {
				vs[i] = rng.Intn(2) == 1
			}
			want, err := json.Marshal(vs)
			if err != nil {
				t.Fatal(err)
			}
			got := appendBools([]byte(`{"present":`), vs)
			if string(got) != `{"present":`+string(want) {
				t.Fatalf("n=%d: %s, want %s", n, got, want)
			}
		}
	}
}

// BenchmarkAppendBools renders 64-verdict test-batch answers whose verdicts
// never repeat within the run, as BenchmarkWriteVerdicts does on the RESP
// plane.
func BenchmarkAppendBools(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	verdicts := make([]bool, 1<<20)
	for i := range verdicts {
		verdicts[i] = rng.Intn(2) == 1
	}
	out := make([]byte, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * 64 % len(verdicts)
		out = appendBools(out[:0], verdicts[lo:lo+64])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/verdict")
}
