package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"evilbloom/internal/engine"
	"evilbloom/internal/service"
)

// The HTTP-layer bugfix sweep's regression tests: RFC 9110 If-None-Match
// handling on the digest endpoint, pushed-peer label validation, and
// keep-alive connection reuse across failed peer exchanges.

// etagMatch must implement RFC 9110 weak comparison over the list forms
// intermediaries actually send, not string equality.
func TestETagMatchRFC9110(t *testing.T) {
	const cur = `"evb-digest-ab12-7"`
	cases := []struct {
		name   string
		header string
		want   bool
	}{
		{"exact", cur, true},
		{"star", `*`, true},
		{"weak form of current", `W/"evb-digest-ab12-7"`, true},
		{"list containing current", `"other-tag", ` + cur, true},
		{"list containing weak current", `"a", W/"evb-digest-ab12-7", "b"`, true},
		{"list without whitespace", `"a",` + cur + `,"b"`, true},
		{"different tag", `"evb-digest-ab12-8"`, false},
		{"list without current", `"a", "b", W/"c"`, false},
		{"empty", ``, false},
		{"unquoted garbage", `evb-digest-ab12-7`, false},
		{"tag with inner comma matched", `"evb,digest"`, false},
		{"star inside list", `"a", *`, true},
		{"dangling weak prefix", `W/`, false},
		{"unterminated quote", `"evb-digest-ab12-7`, false},
	}
	for _, tc := range cases {
		if got := etagMatch(tc.header, cur); got != tc.want {
			t.Errorf("%s: etagMatch(%q) = %v, want %v", tc.name, tc.header, got, tc.want)
		}
	}
	// A tag containing a comma must survive tokenization when it is the
	// current tag too (RFC 9110 etagc permits commas).
	if !etagMatch(`"evb,digest"`, `"evb,digest"`) {
		t.Error("comma-bearing tag mangled by tokenization")
	}
	// Weak comparison is symmetric: a weak current tag matches its strong
	// candidate form.
	if !etagMatch(`"x"`, `W/"x"`) {
		t.Error("weak current tag did not weak-compare")
	}
}

// The digest endpoint must honor every RFC form over the wire: `*`, weak
// validators and comma-separated lists all earn the 304 that exact string
// equality used to deny.
func TestDigestConditionalRequestForms(t *testing.T) {
	ts, _ := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/d", naiveSpec(1), nil)
	_, etag, code := getDigest(t, ts.URL, "d", "")
	if code != http.StatusOK || etag == "" {
		t.Fatalf("digest fetch: %d, etag %q", code, etag)
	}
	hit := []string{
		etag,
		"*",
		"W/" + etag,
		`"stale-tag", ` + etag,
		`W/"other", W/` + etag + `, "more"`,
	}
	for _, h := range hit {
		if _, _, code := getDigest(t, ts.URL, "d", h); code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", h, code)
		}
	}
	miss := []string{`"unrelated"`, `W/"unrelated"`, `"a", "b"`}
	for _, h := range miss {
		if _, _, code := getDigest(t, ts.URL, "d", h); code != http.StatusOK {
			t.Errorf("If-None-Match %q: status %d, want 200", h, code)
		}
	}
}

// Pushed peer labels become map keys echoed back through the peers JSON,
// so they must obey the filter-name rule; anything else is 400 before any
// state is touched.
func TestDigestPushLabelValidation(t *testing.T) {
	reg := service.NewRegistry()
	eng := engine.New(reg)
	ts := httptest.NewServer(NewEngineServer(eng))
	t.Cleanup(ts.Close)
	doJSON(t, "PUT", ts.URL+"/v2/filters/d", naiveSpec(1), nil)
	f, err := reg.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	f.Store().Add([]byte("x"))
	env, _, _ := getDigest(t, ts.URL, "d", "")

	bad := []string{
		"a\x01b",                     // control character
		"a b",                        // whitespace
		strings.Repeat("x", 65),      // over the 64-byte bound
		".hidden",                    // leading dot (path-like)
		"../escape",                  // separator characters
		"sib/0",                      // ditto
		"\x7f",                       // DEL
		"ünïcödé",                    // non-ASCII
		"http://10.0.0.2:8379",       // raw URLs are not labels
		strings.Repeat("\x00", 2000), // arbitrary-length control garbage
	}
	for _, label := range bad {
		code, body := pushDigest(t, ts.URL, "d", labelEscape(label), env)
		if code != http.StatusBadRequest {
			t.Errorf("label %q: status %d (%s), want 400", label, code, body)
		}
	}
	// The registry never stored any of them.
	ref, err := eng.Lookup("d")
	if err != nil {
		t.Fatal(err)
	}
	status, err := eng.PeerStatus(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(status) != 0 {
		t.Errorf("invalid labels stored: %+v", status)
	}
	// A rule-abiding label still works.
	if code, body := pushDigest(t, ts.URL, "d", "sib-0.a_b", env); code != http.StatusOK {
		t.Errorf("valid label refused: %d (%s)", code, body)
	}
	// Direct (non-HTTP) pushes enforce the same rule.
	if _, err := eng.DigestPush(engine.AnonymousFromRemoteAddr("192.0.2.1:1"), ref, "bad label", nil, ""); err == nil {
		t.Error("Push accepted an invalid label")
	}
}

// labelEscape query-escapes a label for the ?peer= parameter.
func labelEscape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		fmt.Fprintf(&b, "%%%02X", s[i])
	}
	return b.String()
}
