package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/engine"
	"evilbloom/internal/service"
)

// getDigestMesh fetches a digest with arbitrary mesh headers, returning
// body, response headers and status.
func getDigestMesh(t *testing.T, base, name string, hdrs map[string]string) ([]byte, http.Header, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v2/filters/"+name+"/digest", nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header, resp.StatusCode
}

// The regression the delta path must not introduce: 304 is earned by
// If-None-Match ALONE. X-Evilbloom-Digest-Have names the delta base the
// fetcher last ACKed; it must never short-circuit the response — a
// delta-capable peer that happens to "have" the current content but did
// not present If-None-Match gets a 200 (possibly an empty delta), because
// Have is an optimization hint, not a cache validator.
func TestDigestETagAcrossDeltaPath(t *testing.T) {
	ts, reg := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/d", naiveSpec(1), nil)
	f, err := reg.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	f.Store().Add([]byte("first"))

	// Delta-capable first fetch: full frame (nothing to diff against).
	body, hdr, code := getDigestMesh(t, ts.URL, "d", map[string]string{service.HeaderDigestDelta: "1"})
	if code != http.StatusOK || hdr.Get(service.HeaderDigestFrame) != "full" {
		t.Fatalf("first fetch: status %d frame %q, want 200 full", code, hdr.Get(service.HeaderDigestFrame))
	}
	e1 := hdr.Get("ETag")
	if e1 == "" || !bytes.HasPrefix(body, []byte("EVBDIGE1")) {
		t.Fatalf("first fetch: etag %q, magic %q", e1, body[:8])
	}

	// Unchanged filter, matching If-None-Match: 304 wins over everything —
	// the delta capability must not break the short-circuit.
	_, _, code = getDigestMesh(t, ts.URL, "d", map[string]string{
		"If-None-Match":           e1,
		service.HeaderDigestDelta: "1",
		service.HeaderDigestHave:  e1,
	})
	if code != http.StatusNotModified {
		t.Fatalf("unchanged conditional fetch: status %d, want 304", code)
	}

	// Mutate; the ACKed base e1 now earns a delta, not a 304 and not a
	// full envelope.
	f.Store().Add([]byte("second"))
	body, hdr, code = getDigestMesh(t, ts.URL, "d", map[string]string{
		"If-None-Match":           e1,
		service.HeaderDigestDelta: "1",
		service.HeaderDigestHave:  e1,
	})
	if code != http.StatusOK || hdr.Get(service.HeaderDigestFrame) != "delta" {
		t.Fatalf("post-mutation fetch: status %d frame %q, want 200 delta", code, hdr.Get(service.HeaderDigestFrame))
	}
	if !bytes.HasPrefix(body, []byte(cachedigest.DeltaFrame.Magic)) {
		t.Fatal("delta-framed response does not carry the delta magic")
	}
	e2 := hdr.Get("ETag")
	if e2 == "" || e2 == e1 {
		t.Fatalf("delta response etag %q (was %q)", e2, e1)
	}

	// THE regression case: the fetcher holds current content (Have == the
	// server's live ETag) but presents no If-None-Match. Have must not
	// manufacture a 304 — the peer never revalidated, it only named a
	// delta base.
	body, hdr, code = getDigestMesh(t, ts.URL, "d", map[string]string{
		service.HeaderDigestDelta: "1",
		service.HeaderDigestHave:  e2,
	})
	if code != http.StatusNotModified {
		// expected branch: fall through to the 200 assertions below
	} else {
		t.Fatalf("Digest-Have alone earned a 304; only If-None-Match may short-circuit")
	}
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("Have-only fetch: status %d body %d bytes, want 200 non-empty", code, len(body))
	}

	// A Have the server never served as a baseline falls back to a full
	// envelope — never an error, never a bogus delta.
	body, hdr, code = getDigestMesh(t, ts.URL, "d", map[string]string{
		service.HeaderDigestDelta: "1",
		service.HeaderDigestHave:  `"bogus"`,
	})
	if code != http.StatusOK || hdr.Get(service.HeaderDigestFrame) != "full" {
		t.Fatalf("unknown-base fetch: status %d frame %q, want 200 full", code, hdr.Get(service.HeaderDigestFrame))
	}
	if !bytes.HasPrefix(body, []byte("EVBDIGE1")) {
		t.Fatal("unknown-base fallback is not a full envelope")
	}

	// And a delta-incapable fetch still works exactly as before.
	if _, _, code := getDigest(t, ts.URL, "d", ""); code != http.StatusOK {
		t.Fatalf("plain fetch: status %d", code)
	}
}

// An add that changes no bit leaves the digest's ETag where it was: a
// repeat add-batch keeps earning 304s, and only a novel add moves the ETag.
func TestDigestETagHoldsUnderRepeatAdds(t *testing.T) {
	ts, _ := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/d", naiveSpec(1), nil)
	batch := map[string][]string{"items": {"a", "b", "c"}}
	if code := doJSON(t, "POST", ts.URL+"/v2/filters/d/add-batch", batch, nil); code != http.StatusOK {
		t.Fatalf("add-batch: status %d", code)
	}
	_, e1, code := getDigest(t, ts.URL, "d", "")
	if code != http.StatusOK || e1 == "" {
		t.Fatalf("first fetch: status %d etag %q", code, e1)
	}

	if code := doJSON(t, "POST", ts.URL+"/v2/filters/d/add-batch", batch, nil); code != http.StatusOK {
		t.Fatalf("repeat add-batch: status %d", code)
	}
	if _, _, code := getDigest(t, ts.URL, "d", e1); code != http.StatusNotModified {
		t.Fatalf("fetch after repeat adds: status %d, want 304", code)
	}

	if code := doJSON(t, "POST", ts.URL+"/v2/filters/d/add", map[string]string{"item": "novel"}, nil); code != http.StatusOK {
		t.Fatalf("novel add: status %d", code)
	}
	_, e2, code := getDigest(t, ts.URL, "d", e1)
	if code != http.StatusOK || e2 == "" || e2 == e1 {
		t.Fatalf("fetch after a novel add: status %d etag %q (was %q), want 200 and a new etag", code, e2, e1)
	}
}

// pushDigestAs pushes env with an optional mesh credential header.
func pushDigestAs(t *testing.T, base, name, peer, token string, env []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v2/filters/"+name+"/digest?peer="+peer, bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if token != "" {
		req.Header.Set(service.HeaderPeerToken, token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return resp.StatusCode, string(body)
}

// A sealed frame followed by any byte is refused like an unsealed one: the
// push answers 400, stores nothing under its label, and hands the charge
// back to the peer principal.
func TestSealedDigestPushRefusesTrailingBytes(t *testing.T) {
	reg := service.NewRegistry()
	eng := engine.New(reg)
	if err := eng.ConfigurePeerAuth([]string{"nodeB:secret-b"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewEngineServer(eng))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // teardown

	doJSON(t, "PUT", ts.URL+"/v2/filters/d", naiveSpec(1), nil)
	f, err := reg.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	f.Store().Add([]byte("x"))
	env, _, code := getDigest(t, ts.URL, "d", "")
	if code != http.StatusOK {
		t.Fatalf("digest fetch: status %d", code)
	}
	sealed := cachedigest.Seal(env, []byte("secret-b"))

	trailing := append(append([]byte(nil), sealed...), "garbage"...)
	if code, body := pushDigestAs(t, ts.URL, "d", "nodeB", "nodeB:secret-b", trailing); code != http.StatusBadRequest {
		t.Fatalf("sealed push with trailing bytes: status %d (%s), want 400", code, body)
	}
	peers, err := reg.Peers().Status("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 0 {
		t.Errorf("refused push stored a digest: %+v", peers)
	}
	if st := reg.Limiter().FilterStats("d"); st.AllowedMutations != 0 {
		t.Errorf("refused push kept its charge: %d allowed mutations, want 0", st.AllowedMutations)
	}

	// The same frame without the garbage lands and is charged once.
	if code, body := pushDigestAs(t, ts.URL, "d", "nodeB", "nodeB:secret-b", sealed); code != http.StatusOK {
		t.Fatalf("sealed push: status %d (%s), want 200", code, body)
	}
	if st := reg.Limiter().FilterStats("d"); st.AllowedMutations != 1 {
		t.Errorf("accepted push: %d allowed mutations, want 1", st.AllowedMutations)
	}
}

// An authenticated mesh accepts digest pushes only from live roster
// members, sealed by their own credential: anonymous pushes, bad tokens,
// unsealed bodies and revoked credentials all answer 401.
func TestDigestPushAuthentication(t *testing.T) {
	reg := service.NewRegistry()
	eng := engine.New(reg)
	if err := eng.ConfigurePeerAuth([]string{"nodeA:secret-a", "nodeB:secret-b"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewEngineServer(eng))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // teardown

	doJSON(t, "PUT", ts.URL+"/v2/filters/d", naiveSpec(1), nil)
	f, err := reg.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	f.Store().Add([]byte("x"))

	// The digest itself stays public (the §7 threat model's whole point);
	// an unauthenticated GET serves it unsealed.
	env, _, code := getDigest(t, ts.URL, "d", "")
	if code != http.StatusOK {
		t.Fatalf("public digest fetch: status %d", code)
	}
	sealed := cachedigest.Seal(env, []byte("secret-b"))

	cases := []struct {
		name  string
		token string
		body  []byte
		want  int
	}{
		{"anonymous push", "", sealed, http.StatusUnauthorized},
		{"bad secret", "nodeB:wrong", sealed, http.StatusUnauthorized},
		{"unknown principal", "nodeC:secret-b", sealed, http.StatusUnauthorized},
		// An unsealed body on a sealed mesh is indistinguishable from a
		// truncated sealed frame (the MAC trailer is part of the expected
		// length, never sniffed), so it reads as structural damage: 400.
		{"unsealed body", "nodeB:secret-b", env, http.StatusBadRequest},
		{"sealed by someone else", "nodeB:secret-b", cachedigest.Seal(env, []byte("secret-a")), http.StatusUnauthorized},
		{"valid", "nodeB:secret-b", sealed, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := pushDigestAs(t, ts.URL, "d", "nodeB", tc.token, tc.body)
			if code != tc.want {
				t.Fatalf("status %d (%s), want %d", code, body, tc.want)
			}
		})
	}

	// Revocation ejects the pushed digest and closes the door behind it.
	evicted, found := eng.RevokePeerToken("nodeB")
	if !found || evicted != 1 {
		t.Fatalf("revocation: evicted %d found %v, want 1 true", evicted, found)
	}
	if code, body := pushDigestAs(t, ts.URL, "d", "nodeB", "nodeB:secret-b", sealed); code != http.StatusUnauthorized {
		t.Fatalf("post-revocation push: status %d (%s), want 401", code, body)
	}
}
