package mesh

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/service"
)

// Mesh defaults and bounds; PeerConfig fields override the defaults.
const (
	// DefaultPeerRefresh is the digest refresh interval (Squid rebuilds
	// hourly; a serving deployment wants staleness bounded in seconds).
	DefaultPeerRefresh = 15 * time.Second
	// refreshJitter is the refresh jitter fraction: each sleep is drawn
	// from Refresh × [1−j, 1+j] so a mesh's fetches do not synchronize.
	refreshJitter = 0.2
	// staleFactor × Refresh with no successful update marks a digest stale.
	staleFactor = 3
	// MaxPushedPeers caps how many pushed digests one filter retains. Push
	// is an unauthenticated endpoint, so like filter creation it must not
	// let a stranger grow server memory without bound.
	MaxPushedPeers = 64
	// MaxPushedDigestBits caps the total digest bits retained across one
	// filter's pushed peers (2^30 bits = 128 MiB), reserved from the
	// envelope's 88-byte header BEFORE the payload is buffered — the same
	// header-first discipline as create-from-snapshot.
	MaxPushedDigestBits = uint64(1) << 30
)

// ErrNoPeers answers refresh requests on a node with no fetch targets — a
// no-op refresh would read as a healthy exchange that isn't there.
var ErrNoPeers = errors.New("mesh: no peers configured (start the server with -peer)")

// ErrPushedDigestLimit answers digest pushes beyond MaxPushedPeers labels
// or MaxPushedDigestBits of retained digest storage per filter.
var ErrPushedDigestLimit = errors.New("mesh: pushed-digest budget exhausted; delete the filter or push smaller digests")

// Credential failures; Login's callers classify both as unauthorized.
var (
	errMalformedCredential = errors.New("malformed peer credentials; want name:secret")
	// errBadCredential deliberately does not say whether the name or the
	// secret was wrong.
	errBadCredential = errors.New("invalid credentials: unknown principal or wrong secret")
)

// Mesh exchange headers. The fetch side advertises its identity and delta
// capability; the serve side names who sealed the frame and what kind of
// frame it is. All optional: a bare PR 4 exchange uses none of them.
const (
	// HeaderPeerToken carries the fetching node's own mesh credential
	// ("name:secret"), the GET-side mirror of the push principal.
	HeaderPeerToken = "X-Evilbloom-Peer-Token"
	// HeaderPeer names the peer whose credential sealed a digest response;
	// absent on unsealed responses.
	HeaderPeer = "X-Evilbloom-Peer"
	// HeaderDigestDelta ("1") advertises that the fetcher can apply delta
	// frames.
	HeaderDigestDelta = "X-Evilbloom-Digest-Delta"
	// HeaderDigestHave echoes the digest ETag the fetcher currently holds —
	// its last ACK, the base a delta may be diffed against. Deliberately
	// distinct from If-None-Match: Have drives delta selection, never 304.
	HeaderDigestHave = "X-Evilbloom-Digest-Have"
	// HeaderDigestFrame reports what was served: "full" or "delta".
	HeaderDigestFrame = "X-Evilbloom-Digest-Frame"
)

// PeerConfig joins a node to a digest-exchange mesh. Every field is
// optional: with no Peers the node fetches nothing, yet its quorum and
// roster still govern pushed digests and route verdicts.
type PeerConfig struct {
	// Peers lists the mesh roster's base URLs (e.g. "http://10.0.0.2:8379").
	// Under the default pairs topology with no Self this is PR 4's "every
	// other node" list; under ring/hub it is the full roster including this
	// node, with Self naming which entry is ours.
	Peers []string
	// Topology picks which roster members this node fetches (default pairs).
	Topology Topology
	// Self is this node's own roster entry (required for ring and hub).
	Self string
	// RouteQuorum is how many sibling claims a route verdict needs before
	// answering "peer" (default 1, PR 4's first-claiming-peer rule).
	RouteQuorum int
	// Refresh is the fetch interval (DefaultPeerRefresh when zero).
	Refresh time.Duration
	// Tokens is the credential roster, "name:secret" entries with this
	// node's own first (the -peer-token list). With it, digests travel
	// HMAC-sealed, fetches present this node's credential, and pushes must
	// be sealed by a live roster member.
	Tokens []string
	// Client performs the fetches (a 5-second-timeout client when nil).
	Client *http.Client
}

// Peers manages every filter's sibling digests: one refresh loop per local
// filter (started by Watch, stopped by Unwatch), plus push-imported
// digests, plus the credential roster that authenticates both. A node with
// no fetch targets runs no loops but still accepts pushes, so the route
// endpoint works everywhere.
type Peers struct {
	mu         sync.Mutex
	configured bool
	urls       []string // resolved fetch targets, not the full roster
	refresh    time.Duration
	quorum     int // route verdict threshold, at least 1
	client     *http.Client
	watches    map[string]*peerWatch

	// self and secrets are the credential roster: this node's own
	// principal name and each principal's MAC secret. nil on an
	// unauthenticated mesh (the PR 4 exchange); Revoke deletes entries.
	self    string
	secrets map[string]string
}

// New returns an unconfigured mesh member: pushes work, no loops run.
func New() *Peers {
	return &Peers{
		refresh: DefaultPeerRefresh,
		quorum:  1,
		client:  &http.Client{Timeout: 5 * time.Second},
		watches: make(map[string]*peerWatch),
	}
}

// Quorum returns the route verdict threshold (at least 1).
func (p *Peers) Quorum() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quorum
}

// peerWatch is one local filter's view of the mesh.
type peerWatch struct {
	name string
	stop chan struct{} // closed by Unwatch; nil when no loop runs
	done chan struct{} // closed by the loop on exit

	mu      sync.RWMutex
	fetched []*peerDigest          // one per configured URL, fixed order
	pushed  map[string]*peerDigest // push-imported, keyed by label
	// pushedBits charges retained pushed digests (plus in-flight push
	// reservations) against MaxPushedDigestBits.
	pushedBits uint64
}

// peerDigest is one peer's staleness and failure accounting: the last
// good digest plus everything needed to judge it.
type peerDigest struct {
	peer   string // base URL (fetched) or label (pushed)
	pushed bool

	digest      *cachedigest.PeerDigest // nil until the first good exchange
	etag        string
	sealedBy    string // peer name whose credential sealed the held digest
	fetches     uint64 // completed GETs answered 200
	notModified uint64 // GETs short-circuited by If-None-Match (304)
	deltaCount  uint64 // 200s answered with a delta frame instead of a full envelope
	bytesIn     uint64 // digest frame bytes received across all 200s (MAC trailer included)
	failures    uint64 // transport errors and non-200/304 answers
	consecutive uint64 // failures since the last success
	lastErr     string
	lastUpdate  time.Time // last 200, 304 or push
}

// Configure installs the mesh configuration and starts refresh loops for
// every filter already watched. It is one-shot, before traffic:
// reconfiguring a live mesh would have to restart every loop for little
// operational value.
func (p *Peers) Configure(cfg PeerConfig) error {
	for _, raw := range cfg.Peers {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("mesh: peer URL %q is not an absolute http(s) URL", raw)
		}
	}
	if cfg.Refresh < 0 {
		return fmt.Errorf("mesh: refresh interval %v, want ≥ 0", cfg.Refresh)
	}
	if cfg.RouteQuorum < 0 {
		return fmt.Errorf("mesh: route quorum %d, want ≥ 1", cfg.RouteQuorum)
	}
	var targets []string
	if len(cfg.Peers) > 0 {
		topo := cfg.Topology
		if topo == "" {
			topo = TopologyPairs
		}
		var err error
		if targets, err = resolveTargets(cfg.Peers, topo, cfg.Self); err != nil {
			return err
		}
		if len(targets) == 0 {
			return fmt.Errorf("%w: the roster resolves to no fetch targets under %s topology", ErrNoPeers, topo)
		}
	}
	self, secrets, err := parseRoster(cfg.Tokens)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.configured {
		return errors.New("mesh: already configured")
	}
	p.configured = true
	p.urls = targets
	if cfg.RouteQuorum > 0 {
		p.quorum = cfg.RouteQuorum
	}
	if cfg.Refresh > 0 {
		p.refresh = cfg.Refresh
	}
	if cfg.Client != nil {
		p.client = cfg.Client
	}
	p.self, p.secrets = self, secrets
	for _, w := range p.watches {
		p.startLocked(w)
	}
	return nil
}

// parseRoster reads "name:secret" credential entries, this node's own
// first. No entries is an unauthenticated mesh.
func parseRoster(entries []string) (self string, secrets map[string]string, err error) {
	if len(entries) == 0 {
		return "", nil, nil
	}
	secrets = make(map[string]string, len(entries))
	for _, entry := range entries {
		name, secret, ok := strings.Cut(entry, ":")
		if !ok || secret == "" {
			return "", nil, fmt.Errorf("mesh: peer token %q: want name:secret with a non-empty secret", entry)
		}
		if _, dup := secrets[name]; dup {
			return "", nil, fmt.Errorf("mesh: duplicate peer token name %q", name)
		}
		secrets[name] = secret
	}
	self, _, _ = strings.Cut(entries[0], ":")
	return self, secrets, nil
}

// Sealed reports whether a credential roster is in force: digests then
// travel sealed and pushes must be.
func (p *Peers) Sealed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.secrets) > 0
}

// credential returns the named principal's live secret.
func (p *Peers) credential(name string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	secret, ok := p.secrets[name]
	return secret, ok
}

// authorized reports whether the named peer's credential is live.
func (p *Peers) authorized(name string) bool {
	_, ok := p.credential(name)
	return ok
}

// SelfCredential returns this node's own name and secret — false when no
// roster is installed or the node's own credential was revoked.
func (p *Peers) SelfCredential() (name, secret string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.self == "" {
		return "", "", false
	}
	secret, ok = p.secrets[p.self]
	return p.self, secret, ok
}

// Login authenticates a combined "name:secret" mesh credential and returns
// the peer's name. The comparison is constant-time, and the failure does
// not reveal whether the name exists.
func (p *Peers) Login(token string) (string, error) {
	name, secret, ok := strings.Cut(token, ":")
	if !ok {
		return "", errMalformedCredential
	}
	want, known := p.credential(name)
	if !known {
		// Burn comparable time for unknown names so timing does not
		// enumerate the roster.
		subtle.ConstantTimeCompare([]byte(secret), []byte(secret))
		return "", errBadCredential
	}
	if subtle.ConstantTimeCompare([]byte(secret), []byte(want)) != 1 {
		return "", errBadCredential
	}
	return name, nil
}

// unseal verifies data's MAC trailer against the named peer's live
// credential and returns the bare frame. An unknown or revoked sealer fails
// exactly like a bad MAC: the frame is not authenticated by a live
// credential.
func (p *Peers) unseal(name string, data []byte) ([]byte, error) {
	p.mu.Lock()
	secret, ok := p.secrets[name]
	rostered := p.secrets != nil
	p.mu.Unlock()
	switch {
	case !rostered:
		return nil, fmt.Errorf("%w: peer sealed its digest as %q, but this node holds no mesh credentials",
			cachedigest.ErrEnvelopeUnauthenticated, name)
	case !ok:
		return nil, fmt.Errorf("%w: no live credential for peer %q", cachedigest.ErrEnvelopeUnauthenticated, name)
	}
	return cachedigest.Unseal(data, []byte(secret))
}

// Revoke removes one peer's credential and scrubs every digest it
// authenticated, across all filters. It returns how many digests were
// evicted and whether the name was on the roster at all. Revoking is
// deliberately not one-shot: ejecting an evil sibling mid-campaign is the
// whole point.
func (p *Peers) Revoke(name string) (evicted int, found bool) {
	p.mu.Lock()
	_, found = p.secrets[name]
	delete(p.secrets, name)
	p.mu.Unlock()
	if !found {
		return 0, false
	}
	// Evict AFTER the credential is gone: record and Push re-check the
	// credential inside the watch lock, so an in-flight digest either fails
	// that check or is stored before evict scrubs it — no interleaving lets
	// a revoked peer's digest survive.
	return p.evict(name), true
}

// Watch registers a local filter with the mesh, starting its refresh loop
// when fetch targets are configured. Idempotent.
func (p *Peers) Watch(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.watches[name] != nil {
		return
	}
	w := &peerWatch{name: name, pushed: make(map[string]*peerDigest)}
	p.watches[name] = w
	p.startLocked(w)
}

// startLocked provisions w's per-peer state and starts its refresh loop.
// The caller holds p.mu.
func (p *Peers) startLocked(w *peerWatch) {
	if len(p.urls) == 0 || w.stop != nil {
		return
	}
	w.fetched = make([]*peerDigest, len(p.urls))
	for i, u := range p.urls {
		w.fetched[i] = &peerDigest{peer: u}
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go p.refreshLoop(w)
}

// Unwatch forgets a filter's digests, stops its refresh loop and waits for
// it to exit — the delete path's leak guarantee: when Unwatch returns, no
// goroutine still works for the filter.
func (p *Peers) Unwatch(name string) {
	p.mu.Lock()
	w := p.watches[name]
	delete(p.watches, name)
	p.mu.Unlock()
	if w == nil || w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
}

// refreshLoop fetches w's peers immediately (a fresh filter should learn
// the mesh without waiting a full interval), then on the jittered interval
// until stopped.
func (p *Peers) refreshLoop(w *peerWatch) {
	defer close(w.done)
	p.fetchAll(w)
	for {
		t := time.NewTimer(p.jittered())
		select {
		case <-w.stop:
			t.Stop()
			return
		case <-t.C:
			p.fetchAll(w)
		}
	}
}

// jittered draws one refresh sleep from Refresh × [1−j, 1+j].
func (p *Peers) jittered() time.Duration {
	j := 1 + refreshJitter*(2*rand.Float64()-1) //nolint:gosec // scheduling jitter, not crypto
	return time.Duration(float64(p.refresh) * j)
}

// fetchAll refreshes every configured peer of one filter sequentially (peer
// sets are small; a slow peer delaying its siblings' refresh by its timeout
// is acceptable, a goroutine per peer per filter is not).
func (p *Peers) fetchAll(w *peerWatch) {
	for _, st := range w.fetched {
		p.fetchOne(w, st)
	}
}

// fetchOne performs one conditional digest GET against a peer and folds the
// outcome into its accounting. A generation-gap delta — the peer diffed
// against a base this node does not hold — retries once as a plain full
// fetch, so a gap costs one extra round trip, never a stale digest.
func (p *Peers) fetchOne(w *peerWatch, st *peerDigest) {
	if err := p.exchangeOne(w, st, true); errors.Is(err, cachedigest.ErrDeltaGap) {
		p.exchangeOne(w, st, false) //nolint:errcheck // outcome is folded into st's accounting
	}
}

// exchangeOne runs one digest GET. allowDelta advertises delta capability
// and the held digest's ETag; fetchOne retries without it on a generation
// gap. The returned error mirrors what record folded into accounting.
func (p *Peers) exchangeOne(w *peerWatch, st *peerDigest, allowDelta bool) error {
	w.mu.RLock()
	etag := st.etag
	held := st.digest
	w.mu.RUnlock()

	req, err := http.NewRequest(http.MethodGet, st.peer+"/v2/filters/"+url.PathEscape(w.name)+"/digest", nil)
	if err != nil {
		return p.record(w, st, fetchResult{err: err})
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	self, secret, sealedMesh := p.SelfCredential()
	if sealedMesh {
		req.Header.Set(HeaderPeerToken, self+":"+secret)
	}
	if allowDelta {
		req.Header.Set(HeaderDigestDelta, "1")
		if etag != "" && held != nil {
			req.Header.Set(HeaderDigestHave, etag)
		}
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return p.record(w, st, fetchResult{err: err})
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		w.mu.Lock()
		st.notModified++
		st.consecutive = 0
		st.lastErr = ""
		st.lastUpdate = time.Now()
		w.mu.Unlock()
		return nil
	case http.StatusOK:
		res := p.readDigestResponse(resp, held, sealedMesh)
		if res.err != nil {
			// A decode failure can leave unread payload behind; drain it
			// (bounded) so the keep-alive connection survives the error.
			drainBody(resp.Body)
		}
		return p.record(w, st, res)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		// Drain the (bounded) remainder before the deferred Close: a body
		// closed with bytes still unread discards the whole keep-alive
		// connection, so a flapping peer answering long errors would force
		// a fresh TCP(+TLS) dial on every refresh tick.
		drainBody(resp.Body)
		return p.record(w, st, fetchResult{err: fmt.Errorf("peer answered %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))})
	}
}

// fetchResult is one 200-exchange's outcome, handed to record.
type fetchResult struct {
	digest   *cachedigest.PeerDigest
	etag     string
	sealedBy string
	bytes    uint64
	delta    bool
	err      error
}

// readDigestResponse buffers, authenticates and decodes a 200 digest
// response. In a sealed mesh (this node presented its credential) an
// unsealed answer is refused outright — a downgrade must read as a failure,
// not quietly import unauthenticated bits. held is the digest a delta would
// be applied to.
func (p *Peers) readDigestResponse(resp *http.Response, held *cachedigest.PeerDigest, sealedMesh bool) fetchResult {
	sealer := resp.Header.Get(HeaderPeer)
	sealed := sealer != ""
	if sealedMesh && !sealed {
		return fetchResult{err: errors.New("authenticated mesh, but the peer answered an unsealed digest")}
	}
	frame, format, err := cachedigest.ReadFrame(resp.Body, sealed, nil, cachedigest.DeltaFrame, cachedigest.EnvelopeFrame)
	if err != nil {
		return fetchResult{err: err}
	}
	n := uint64(len(frame))
	if sealed {
		if frame, err = p.unseal(sealer, frame); err != nil {
			return fetchResult{err: err}
		}
	}
	res := fetchResult{etag: resp.Header.Get("ETag"), sealedBy: sealer, bytes: n}
	if format == cachedigest.DeltaFrame {
		if held == nil {
			res.err = fmt.Errorf("%w: delta answered with no digest held", cachedigest.ErrDeltaGap)
			return res
		}
		//lint:allow atomicpublish writes land in a freshly decoded digest copy, never in a published store
		d, err := held.ApplyDelta(frame)
		if err != nil {
			res.err = err
			return res
		}
		res.digest, res.delta = d, true
		return res
	}
	//lint:allow atomicpublish decoding fills a freshly allocated digest, never a published store
	d, err := cachedigest.OpenEnvelope(frame)
	if err != nil {
		res.err = err
		return res
	}
	res.digest = d
	return res
}

// maxErrorDrain bounds how much of a failed exchange's body is read to
// rescue the connection; past it, dropping the connection is cheaper than
// downloading a peer's endless error.
const maxErrorDrain = 64 << 10

// drainBody consumes at most maxErrorDrain of rd so the transport can
// return the connection to its idle pool.
func drainBody(rd io.Reader) {
	io.Copy(io.Discard, io.LimitReader(rd, maxErrorDrain)) //nolint:errcheck // best-effort connection rescue
}

// record folds a completed (non-304) exchange into a peer's accounting and
// returns the exchange's effective error. For sealed exchanges the
// sealer's credential is re-checked here, INSIDE w.mu, at the moment the
// digest would land: evict scrubs under the same lock after the
// credential is removed, so a peer revoked mid-fetch either fails this
// check or is scrubbed right after storing — its in-flight digest never
// outlives the revocation.
func (p *Peers) record(w *peerWatch, st *peerDigest, res fetchResult) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	st.bytesIn += res.bytes
	if res.err == nil && res.sealedBy != "" && !p.authorized(res.sealedBy) {
		res.err = fmt.Errorf("peer %q's mesh credential was revoked mid-exchange", res.sealedBy)
	}
	if res.err != nil {
		st.failures++
		st.consecutive++
		st.lastErr = res.err.Error()
		return res.err // the last good digest keeps serving, flagged stale by age
	}
	st.fetches++
	if res.delta {
		st.deltaCount++
	}
	st.consecutive = 0
	st.lastErr = ""
	st.digest = res.digest
	st.etag = res.etag
	st.sealedBy = res.sealedBy
	st.lastUpdate = time.Now()
	return nil
}

// RefreshNow synchronously refreshes every configured peer of one filter —
// the POST .../peers/refresh handler, and what deterministic tests and the
// smoke script use instead of waiting out the interval. It returns the
// post-refresh status.
func (p *Peers) RefreshNow(name string) ([]PeerStatus, error) {
	p.mu.Lock()
	w := p.watches[name]
	urls := len(p.urls)
	p.mu.Unlock()
	if w == nil {
		return nil, fmt.Errorf("%w: %q", service.ErrFilterNotFound, name)
	}
	if urls == 0 {
		return nil, ErrNoPeers
	}
	p.fetchAll(w)
	return p.Status(name)
}

// Push imports a digest envelope under a peer label — the push half of the
// gossip, for peers that cannot be dialed back. It follows the registry's
// header-first discipline: the digest's size is read from the 88-byte
// header and reserved against the per-filter MaxPushedPeers /
// MaxPushedDigestBits budget BEFORE the payload is buffered, and the
// reservation is filled or rolled back — a pusher cannot make the node
// hold more digest bytes than the budget it was granted.
//
// sealer is the authenticated mesh principal behind the push ("" on an
// unauthenticated mesh; the engine enforces that an authenticated mesh
// never passes ""), retained for attribution and scrubbed by Revoke. When
// sealed is true the body carries a MAC trailer keyed by sealer's
// credential and is verified before the envelope is opened.
func (p *Peers) Push(name, label string, rd io.Reader, sealer string, sealed bool) (PeerStatus, error) {
	// Labels are retained as map keys and echoed through the peers JSON, so
	// they follow the filter-name rule (bounded length, no control or
	// separator characters). The HTTP layer rejects bad labels with 400
	// before reaching here; this guards direct callers.
	if !service.ValidFilterName(label) {
		return PeerStatus{}, fmt.Errorf("mesh: invalid peer label %q (want %s)", label, service.FilterNamePattern())
	}
	w := p.lookup(name)
	if w == nil {
		return PeerStatus{}, fmt.Errorf("%w: %q", service.ErrFilterNotFound, name)
	}
	var bits uint64 // reserved; never 0 once the header is admitted
	env, _, err := cachedigest.ReadFrame(rd, sealed, func(hdr []byte) (func(io.Reader) error, error) {
		info, err := cachedigest.DecodeEnvelopeInfo(hdr)
		if err != nil {
			return nil, err
		}
		b := uint64(info.Shards) * info.ShardBits
		if err := w.reservePush(label, b); err != nil {
			return nil, err
		}
		bits = b
		return nil, nil
	}, cachedigest.EnvelopeFrame)
	if err == nil && sealed {
		env, err = p.unseal(sealer, env)
	}
	var d *cachedigest.PeerDigest
	if err == nil {
		//lint:allow atomicpublish decoding fills a freshly allocated digest, never a published store
		d, err = cachedigest.OpenEnvelope(env)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Same revoked-mid-flight discipline as record: the principal must
	// still be authorized at the moment the digest lands.
	if err == nil && sealer != "" && !p.authorized(sealer) {
		err = fmt.Errorf("peer %q's mesh credential was revoked mid-push", sealer)
	}
	if err != nil {
		w.pushedBits -= bits // roll the reservation back
		return PeerStatus{}, err
	}
	st := w.pushed[label]
	if st == nil {
		st = &peerDigest{peer: label, pushed: true}
		w.pushed[label] = st
	}
	if st.digest != nil {
		w.pushedBits -= st.digest.Bits() // the replaced digest's charge
	}
	st.fetches++
	st.consecutive = 0
	st.lastErr = ""
	st.digest = d
	st.sealedBy = sealer
	st.lastUpdate = time.Now()
	return p.statusOf(st), nil
}

// evict scrubs every digest attributed to the named peer principal across
// all filters — the teeth behind credential revocation. Fetched entries
// lose their digest (the refresh loop keeps polling and keeps failing
// while the peer's frames verify against a revoked credential); pushed
// entries are dropped entirely and their budget charge released. Returns
// how many digests were scrubbed.
func (p *Peers) evict(peer string) int {
	p.mu.Lock()
	watches := make([]*peerWatch, 0, len(p.watches))
	for _, w := range p.watches {
		watches = append(watches, w)
	}
	p.mu.Unlock()
	evicted := 0
	for _, w := range watches {
		w.mu.Lock()
		for _, st := range w.fetched {
			if st.sealedBy == peer && st.digest != nil {
				st.digest = nil
				st.etag = ""
				st.sealedBy = ""
				st.lastErr = "peer credential revoked"
				evicted++
			}
		}
		for label, st := range w.pushed {
			if st.sealedBy == peer {
				if st.digest != nil {
					w.pushedBits -= st.digest.Bits()
					evicted++
				}
				delete(w.pushed, label)
			}
		}
		w.mu.Unlock()
	}
	return evicted
}

// reservePush charges bits of pushed-digest budget for label before any
// payload is buffered. A replacement's old charge is credited in the check
// (and released when the new digest is actually stored), so updating a
// label never deadlocks against a full budget; under racing replacements
// of one label the retained total stays exact and only the transient
// in-flight sum can briefly overshoot.
func (w *peerWatch) reservePush(label string, bits uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	prev := w.pushed[label]
	if prev == nil && len(w.pushed) >= MaxPushedPeers {
		return fmt.Errorf("%w: filter already retains %d pushed digests", ErrPushedDigestLimit, len(w.pushed))
	}
	var prevBits uint64
	if prev != nil && prev.digest != nil {
		prevBits = prev.digest.Bits()
	}
	if bits > MaxPushedDigestBits || w.pushedBits-prevBits > MaxPushedDigestBits-bits {
		return fmt.Errorf("%w: %d digest bits pushed, %d of %d retained",
			ErrPushedDigestLimit, bits, w.pushedBits, MaxPushedDigestBits)
	}
	w.pushedBits += bits
	return nil
}

// PeerStatus is one peer's accounting as served on GET .../peers.
type PeerStatus struct {
	// Peer is the sibling's base URL (fetched) or push label.
	Peer string `json:"peer"`
	// Source is "fetched" for refresh-loop peers, "pushed" for imports.
	Source string `json:"source"`
	// HasDigest reports whether a usable digest is held.
	HasDigest bool `json:"has_digest"`
	// Generation, DigestBits and DigestWeight describe the held digest.
	Generation   uint64 `json:"generation,omitempty"`
	DigestBits   uint64 `json:"digest_bits,omitempty"`
	DigestWeight uint64 `json:"digest_weight,omitempty"`
	// AgeSeconds is the time since the last successful update (200, 304 or
	// push); Stale reports whether it exceeds the staleness bound.
	AgeSeconds float64 `json:"age_seconds,omitempty"`
	Stale      bool    `json:"stale,omitempty"`
	// Fetches, NotModified and Failures count completed exchanges;
	// ConsecutiveFailures counts failures since the last success.
	Fetches             uint64 `json:"fetches,omitempty"`
	NotModified         uint64 `json:"not_modified,omitempty"`
	Failures            uint64 `json:"failures,omitempty"`
	ConsecutiveFailures uint64 `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	// SealedBy names the mesh principal whose credential authenticated the
	// held digest ("" on an unauthenticated exchange).
	SealedBy string `json:"sealed_by,omitempty"`
	// DeltaFetches counts 200s answered with a delta frame instead of a
	// full envelope; BytesFetched totals digest frame bytes received — the
	// pair that makes the delta bandwidth saving observable.
	DeltaFetches uint64 `json:"delta_fetches,omitempty"`
	BytesFetched uint64 `json:"bytes_fetched,omitempty"`
}

// stale reports whether a digest last updated age ago is past the
// staleness bound.
func (p *Peers) stale(age time.Duration) bool { return age > staleFactor*p.refresh }

// statusOf snapshots one peer's accounting. The caller holds w.mu.
func (p *Peers) statusOf(st *peerDigest) PeerStatus {
	out := PeerStatus{
		Peer:                st.peer,
		Source:              "fetched",
		HasDigest:           st.digest != nil,
		Fetches:             st.fetches,
		NotModified:         st.notModified,
		Failures:            st.failures,
		ConsecutiveFailures: st.consecutive,
		LastError:           st.lastErr,
		SealedBy:            st.sealedBy,
		DeltaFetches:        st.deltaCount,
		BytesFetched:        st.bytesIn,
	}
	if st.pushed {
		out.Source = "pushed"
	}
	if st.digest != nil {
		out.Generation = st.digest.Generation()
		out.DigestBits = st.digest.Bits()
		out.DigestWeight = st.digest.Weight()
	}
	if !st.lastUpdate.IsZero() {
		age := time.Since(st.lastUpdate)
		out.AgeSeconds = age.Seconds()
		out.Stale = p.stale(age)
	}
	return out
}

// Status snapshots every peer of one filter: configured peers in their
// configured order, then pushed peers sorted by label.
func (p *Peers) Status(name string) ([]PeerStatus, error) {
	w := p.lookup(name)
	if w == nil {
		return nil, fmt.Errorf("%w: %q", service.ErrFilterNotFound, name)
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	states := w.orderedLocked()
	out := make([]PeerStatus, len(states))
	for i, st := range states {
		out[i] = p.statusOf(st)
	}
	return out, nil
}

// lookup returns the named filter's watch, nil when it is not watched.
func (p *Peers) lookup(name string) *peerWatch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.watches[name]
}

// orderedLocked lists w's peers in status order: fetched peers in
// configured order, then pushed peers by label. The caller holds w.mu.
func (w *peerWatch) orderedLocked() []*peerDigest {
	out := make([]*peerDigest, 0, len(w.fetched)+len(w.pushed))
	out = append(out, w.fetched...)
	labels := make([]string, 0, len(w.pushed))
	for l := range w.pushed {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		out = append(out, w.pushed[l])
	}
	return out
}

// PeerClaim is one peer's answer inside a routing verdict.
type PeerClaim struct {
	// Peer names the sibling (URL or push label).
	Peer string `json:"peer"`
	// Claims reports whether the sibling's digest contains the item.
	Claims bool `json:"claims"`
	// Generation is the claimed digest's generation.
	Generation uint64 `json:"generation,omitempty"`
	// AgeSeconds and Stale qualify how current the digest is; Squid-style
	// routing uses stale digests until replaced, so a claim from a stale
	// digest still routes — flagged, so the caller can decide otherwise.
	AgeSeconds float64 `json:"age_seconds,omitempty"`
	Stale      bool    `json:"stale,omitempty"`
}

// Claims answers one item against every held digest of one filter, in
// status order. Peers holding no digest claim nothing.
func (p *Peers) Claims(name string, item []byte) []PeerClaim {
	w := p.lookup(name)
	if w == nil {
		return nil
	}
	w.mu.RLock()
	states := w.orderedLocked()
	type held struct {
		claim  PeerClaim
		digest *cachedigest.PeerDigest
	}
	snapshot := make([]held, len(states))
	for i, st := range states {
		h := held{digest: st.digest, claim: PeerClaim{Peer: st.peer}}
		if st.digest != nil {
			h.claim.Generation = st.digest.Generation()
		}
		if !st.lastUpdate.IsZero() {
			age := time.Since(st.lastUpdate)
			h.claim.AgeSeconds = age.Seconds()
			h.claim.Stale = p.stale(age)
		}
		snapshot[i] = h
	}
	w.mu.RUnlock()
	// Digest evaluation happens outside the lock: PeerDigest is immutable
	// and concurrency-safe, and k hashes per peer need not serialize with
	// refresh bookkeeping.
	out := make([]PeerClaim, len(snapshot))
	for i, h := range snapshot {
		if h.digest != nil {
			h.claim.Claims = h.digest.Test(item)
		}
		out[i] = h.claim
	}
	return out
}
