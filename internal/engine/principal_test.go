package engine

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"evilbloom/internal/service"
)

// testEngine builds an engine over a fresh registry, optionally behind a
// trusting proxy tier.
func testEngine(t *testing.T, trustProxy bool) *Engine {
	t.Helper()
	reg := service.NewRegistry()
	e := New(reg)
	if trustProxy {
		if err := e.ConfigureRateLimit(RateLimitConfig{
			MutationsPerSec: 1000, Burst: 1000, TrustProxy: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	return e
}

// Identity resolution: the transport address by default; header claims only
// behind trust-proxy, only well-formed ones, and never into the
// authenticated namespace.
func TestClientIdentityResolution(t *testing.T) {
	mk := func(remote string, hdr map[string]string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v2/filters/f/add", nil)
		r.RemoteAddr = remote
		for k, v := range hdr {
			r.Header.Set(k, v)
		}
		return r
	}
	cases := []struct {
		name       string
		r          *http.Request
		trustProxy bool
		want       string
	}{
		{"remote addr", mk("10.1.2.3:555", nil), false, "10.1.2.3"},
		{"headers ignored untrusted", mk("10.1.2.3:555", map[string]string{ClientIdentityHeader: "mallory"}), false, "10.1.2.3"},
		{"client header trusted", mk("10.1.2.3:555", map[string]string{ClientIdentityHeader: "mallory"}), true, "mallory"},
		{"client header beats xff", mk("10.1.2.3:555", map[string]string{ClientIdentityHeader: "m", "X-Forwarded-For": "9.9.9.9"}), true, "m"},
		{"xff rightmost (nearest-proxy) hop", mk("10.1.2.3:555", map[string]string{"X-Forwarded-For": "evil-claim, 8.8.8.8"}), true, "8.8.8.8"},
		{"xff single hop", mk("10.1.2.3:555", map[string]string{"X-Forwarded-For": "9.9.9.9"}), true, "9.9.9.9"},
		{"control chars fall through", mk("10.1.2.3:555", map[string]string{ClientIdentityHeader: "a\x01b"}), true, "10.1.2.3"},
		{"oversized falls through", mk("10.1.2.3:555", map[string]string{ClientIdentityHeader: strings.Repeat("x", 300)}), true, "10.1.2.3"},
		{"auth-namespace claim falls through", mk("10.1.2.3:555", map[string]string{ClientIdentityHeader: "auth:alice"}), true, "10.1.2.3"},
		{"auth-namespace xff falls through", mk("10.1.2.3:555", map[string]string{"X-Forwarded-For": "auth:alice"}), true, "10.1.2.3"},
		{"ipv6 remote", mk("[::1]:555", nil), true, "::1"},
	}
	for _, tc := range cases {
		e := testEngine(t, tc.trustProxy)
		p, err := e.HTTPPrincipal(tc.r)
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if p.ID != tc.want || p.Authenticated() {
			t.Errorf("%s: principal %+v, want anonymous %q", tc.name, p, tc.want)
		}
	}
}

func TestConfigureAuthValidation(t *testing.T) {
	bad := [][]string{
		{"alice"},                         // no secret separator
		{"alice:"},                        // empty secret
		{":s3cret"},                       // empty name
		{"al ice:s3cret"},                 // whitespace in name
		{"a\x01b:s3cret"},                 // control character
		{strings.Repeat("x", 200) + ":s"}, // name over the identity bound
		{"alice:s1", "alice:s2"},          // duplicate name
	}
	for _, entries := range bad {
		if err := testEngine(t, false).ConfigureAuth(entries); err == nil {
			t.Errorf("entries %q accepted", entries)
		}
	}
	e := testEngine(t, false)
	// Secrets may contain ':' — only the first separator splits.
	if err := e.ConfigureAuth([]string{"alice:se:cr:et", "bob.1_2-3:pw"}); err != nil {
		t.Fatal(err)
	}
	if err := e.ConfigureAuth([]string{"carol:pw"}); err == nil {
		t.Error("reconfiguration accepted")
	}
	if !e.AuthEnabled() {
		t.Error("configured engine reports auth disabled")
	}
	if testEngine(t, false).AuthEnabled() {
		t.Error("unconfigured engine reports auth enabled")
	}
}

func TestLoginAndBucketIdentity(t *testing.T) {
	e := testEngine(t, false)
	if err := e.ConfigureAuth([]string{"alice:s3cret"}); err != nil {
		t.Fatal(err)
	}
	p, err := e.Login("alice", "s3cret")
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != "auth:alice" || p.Name != "alice" || !p.Authenticated() {
		t.Errorf("authenticated principal %+v", p)
	}
	if _, err := e.Login("alice", "wrong"); Classify(err) != KindUnauthorized {
		t.Errorf("wrong secret: %v", err)
	}
	if _, err := e.Login("nobody", "s3cret"); Classify(err) != KindUnauthorized {
		t.Errorf("unknown name: %v", err)
	}
	// The failure message must not reveal which part was wrong.
	wrongSecretErr := errText(t, e, "alice", "wrong")
	unknownNameErr := errText(t, e, "nobody", "x")
	if wrongSecretErr != unknownNameErr {
		t.Errorf("error text distinguishes unknown name from wrong secret:\n  %q\n  %q", wrongSecretErr, unknownNameErr)
	}

	// LoginToken splits on the FIRST colon, so secrets may contain colons.
	e2 := testEngine(t, false)
	if err := e2.ConfigureAuth([]string{"bob:pa:ss"}); err != nil {
		t.Fatal(err)
	}
	if p, err := e2.LoginToken("bob:pa:ss"); err != nil || p.ID != "auth:bob" {
		t.Errorf("colon-bearing secret: %+v, %v", p, err)
	}
	if _, err := e2.LoginToken("no-separator"); Classify(err) != KindUnauthorized {
		t.Errorf("malformed token: %v", err)
	}
}

func errText(t *testing.T, e *Engine, name, secret string) string {
	t.Helper()
	_, err := e.Login(name, secret)
	if err == nil {
		t.Fatalf("login %s/%s unexpectedly succeeded", name, secret)
	}
	return err.Error()
}

// A presented-but-invalid bearer credential is 401 material, never a silent
// fall-through to the anonymous bucket — garbling a token must not shed a
// throttled identity.
func TestHTTPPrincipalBearer(t *testing.T) {
	e := testEngine(t, false)
	if err := e.ConfigureAuth([]string{"alice:s3cret"}); err != nil {
		t.Fatal(err)
	}
	mk := func(auth string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v2/filters/f/add", nil)
		r.RemoteAddr = "10.1.2.3:555"
		if auth != "" {
			r.Header.Set("Authorization", auth)
		}
		return r
	}
	if p, err := e.HTTPPrincipal(mk("Bearer alice:s3cret")); err != nil || p.ID != "auth:alice" {
		t.Errorf("valid bearer: %+v, %v", p, err)
	}
	// Scheme matching is case-insensitive per RFC 9110.
	if p, err := e.HTTPPrincipal(mk("bearer alice:s3cret")); err != nil || p.ID != "auth:alice" {
		t.Errorf("lowercase scheme: %+v, %v", p, err)
	}
	for _, bad := range []string{
		"Bearer alice:wrong",
		"Bearer nobody:x",
		"Bearer malformed-token",
		"Basic YWxpY2U6czNjcmV0",
		"Bearer",
	} {
		if _, err := e.HTTPPrincipal(mk(bad)); Classify(err) != KindUnauthorized {
			t.Errorf("%q: err %v, want unauthorized", bad, err)
		}
	}
	if p, err := e.HTTPPrincipal(mk("")); err != nil || p.ID != "10.1.2.3" || p.Authenticated() {
		t.Errorf("no header: %+v, %v, want anonymous transport identity", p, err)
	}
}
