package service

import (
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
)

// Peer subsystem: the §7 cache-digest exchange between evilbloom nodes.
//
// Squid siblings periodically ship each other Bloom-filter summaries of
// their caches and use them to decide where to route a miss. Here every
// filter in a registry can take part: a node configured with peer URLs runs
// one refresh loop per local filter, fetching each peer's same-named
// filter's digest (GET /v2/filters/{name}/digest) on a jittered interval
// with an ETag/generation short-circuit, and answers routing queries
// (POST /v2/filters/{name}/route) from the digests it holds. Digests can
// also be pushed (POST .../digest?peer=...) for meshes where only one side
// can dial.
//
// The exchange crosses a trust boundary, and that is the point of serving
// it: a peer's digest is taken at face value, so an adversary who pollutes
// one node's filter (§4.1) poisons every sibling's routing — the §7 attack,
// run live by attack.RemoteDigestPollution (pollution over either wire
// plane, the victim's routing read over HTTP). The digests themselves are
// integrity-checked (CRC, size-bounded before buffering) so a corrupt peer
// can waste round trips but not crash the receiver.

// Peer-exchange defaults; PeerConfig fields override them.
const (
	// DefaultPeerRefresh is the digest refresh interval (Squid rebuilds
	// hourly; a serving deployment wants staleness bounded in seconds).
	DefaultPeerRefresh = 15 * time.Second
	// DefaultPeerJitter is the refresh jitter fraction: each sleep is drawn
	// from Refresh × [1−j, 1+j] so a mesh's fetches do not synchronize.
	DefaultPeerJitter = 0.2
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

// ErrNoPeers answers refresh requests on a registry with no configured peer
// URLs — a no-op refresh would read as a healthy exchange that isn't there.
var ErrNoPeers = errors.New("service: no peers configured (start the server with -peer)")

// ErrPushedDigestLimit answers digest pushes beyond MaxPushedPeers labels
// or MaxPushedDigestBits of retained digest storage per filter.
var ErrPushedDigestLimit = errors.New("service: pushed-digest budget exhausted; delete the filter or push smaller digests")

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

// PeerConfig wires a registry into a digest-exchange mesh.
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
	// Jitter is the refresh jitter fraction in [0,1) (DefaultPeerJitter
	// when zero).
	Jitter float64
	// StaleAfter marks a peer digest stale when no successful update
	// happened within it (staleFactor × Refresh when zero).
	StaleAfter time.Duration
	// Client performs the fetches (a 5-second-timeout client when nil).
	Client *http.Client
}

// Peers manages every filter's sibling digests: one refresh loop per local
// filter (started when the filter is created, stopped when it is deleted),
// plus push-imported digests. A zero-URL Peers runs no loops but still
// accepts pushes, so the route endpoint works on every registry.
type Peers struct {
	mu         sync.Mutex
	urls       []string // resolved fetch targets, not the full roster
	refresh    time.Duration
	jitter     float64
	staleAfter time.Duration
	client     *http.Client
	watches    map[string]*peerWatch
	closed     bool

	// quorum is the route verdict threshold (atomic-free: written under mu
	// at configure time or via SetRouteQuorum before traffic, read under mu).
	quorum int

	// authority, when set, supplies mesh credentials: the token to present
	// on fetches, MAC verification for sealed frames, and the live
	// revocation check. Guarded by authMu; nil means an unauthenticated
	// mesh (the PR 4 exchange).
	authMu    sync.RWMutex
	authority PeerAuthority
}

// SetAuthority installs the engine-side credential store. Called once at
// startup, before the mesh serves traffic.
func (p *Peers) SetAuthority(a PeerAuthority) {
	p.authMu.Lock()
	p.authority = a
	p.authMu.Unlock()
}

func (p *Peers) getAuthority() PeerAuthority {
	p.authMu.RLock()
	defer p.authMu.RUnlock()
	return p.authority
}

// SetRouteQuorum sets the route verdict threshold independently of
// configure — a node with no fetch targets (push-only mesh membership)
// still votes with a quorum.
func (p *Peers) SetRouteQuorum(q int) error {
	if q < 1 {
		return fmt.Errorf("service: route quorum %d, want ≥ 1", q)
	}
	p.mu.Lock()
	p.quorum = q
	p.mu.Unlock()
	return nil
}

// Quorum returns the route verdict threshold (at least 1).
func (p *Peers) Quorum() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.quorum < 1 {
		return 1
	}
	return p.quorum
}

// peerWatch is one local filter's view of the mesh.
type peerWatch struct {
	name string
	stop chan struct{} // closed by unwatch; nil when no loop runs
	done chan struct{} // closed by the loop on exit

	mu      sync.RWMutex
	fetched []*peerDigest          // one per configured URL, fixed order
	pushed  map[string]*peerDigest // push-imported, keyed by label
	// pushedBits charges retained pushed digests (plus in-flight push
	// reservations) against MaxPushedDigestBits.
	pushedBits uint64
}

// peerDigest is the per-peer state the ISSUE calls staleness and failure
// accounting: the last good digest plus everything needed to judge it.
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

// newPeers builds an unconfigured subsystem (pushes work, no loops run).
func newPeers() *Peers {
	return &Peers{
		refresh:    DefaultPeerRefresh,
		jitter:     DefaultPeerJitter,
		staleAfter: staleFactor * DefaultPeerRefresh,
		client:     &http.Client{Timeout: 5 * time.Second},
		watches:    make(map[string]*peerWatch),
	}
}

// configure installs the mesh configuration and starts refresh loops for
// every filter already watched. It is one-shot: reconfiguring a live mesh
// would have to restart every loop for little operational value.
func (p *Peers) configure(cfg PeerConfig) error {
	for _, raw := range cfg.Peers {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("service: peer URL %q is not an absolute http(s) URL", raw)
		}
	}
	if cfg.Refresh < 0 || cfg.Jitter < 0 || cfg.Jitter >= 1 || cfg.StaleAfter < 0 {
		return fmt.Errorf("service: invalid peer config (refresh=%v jitter=%v stale=%v)",
			cfg.Refresh, cfg.Jitter, cfg.StaleAfter)
	}
	if cfg.RouteQuorum < 0 {
		return fmt.Errorf("service: route quorum %d, want ≥ 1", cfg.RouteQuorum)
	}
	topo := cfg.Topology
	if topo == "" {
		topo = TopologyPairs
	}
	if len(cfg.Peers) == 0 {
		return ErrNoPeers
	}
	targets, err := resolveTargets(cfg.Peers, topo, cfg.Self)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		return fmt.Errorf("%w: the roster resolves to no fetch targets under %s topology", ErrNoPeers, topo)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("service: peer subsystem closed")
	}
	if len(p.urls) > 0 {
		return errors.New("service: peers already configured")
	}
	if cfg.RouteQuorum > 0 {
		p.quorum = cfg.RouteQuorum
	}
	p.urls = targets
	if cfg.Refresh > 0 {
		p.refresh = cfg.Refresh
	}
	if cfg.Jitter > 0 {
		p.jitter = cfg.Jitter
	}
	p.staleAfter = cfg.StaleAfter
	if p.staleAfter == 0 {
		p.staleAfter = staleFactor * p.refresh
	}
	if cfg.Client != nil {
		p.client = cfg.Client
	}
	for _, w := range p.watches {
		p.startLocked(w)
	}
	return nil
}

// watch registers a local filter with the mesh, starting its refresh loop
// when peer URLs are configured. Idempotent.
func (p *Peers) watch(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.watches[name] != nil {
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

// unwatch stops a filter's refresh loop and waits for it to exit — the
// Delete path's leak guarantee: when Delete returns, no goroutine still
// works for the filter.
func (p *Peers) unwatch(name string) {
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

// Close stops every refresh loop and refuses further watches. Idempotent.
func (p *Peers) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	watches := make([]*peerWatch, 0, len(p.watches))
	for _, w := range p.watches {
		watches = append(watches, w)
	}
	p.watches = make(map[string]*peerWatch)
	p.mu.Unlock()
	for _, w := range watches {
		if w.stop != nil {
			close(w.stop)
			<-w.done
		}
	}
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
	j := 1 + p.jitter*(2*rand.Float64()-1) //nolint:gosec // scheduling jitter, not crypto
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
	auth := p.getAuthority()
	sealedMesh := false
	if auth != nil {
		if tok, ok := auth.SelfToken(); ok {
			sealedMesh = true
			req.Header.Set(HeaderPeerToken, tok)
		}
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
		res := readDigestResponse(resp, held, sealedMesh, auth)
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
func readDigestResponse(resp *http.Response, held *cachedigest.PeerDigest, sealedMesh bool, auth PeerAuthority) fetchResult {
	sealer := resp.Header.Get(HeaderPeer)
	sealed := sealer != ""
	if sealedMesh && !sealed {
		return fetchResult{err: errors.New("authenticated mesh, but the peer answered an unsealed digest")}
	}
	if sealed && auth == nil {
		return fetchResult{err: fmt.Errorf("peer sealed its digest as %q, but this node holds no mesh credentials", sealer)}
	}
	frame, format, err := cachedigest.ReadFrame(resp.Body, sealed, nil, cachedigest.DeltaFrame, cachedigest.EnvelopeFrame)
	if err != nil {
		return fetchResult{err: err}
	}
	n := uint64(len(frame))
	if sealed {
		if frame, err = auth.Unseal(sealer, frame); err != nil {
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
// authority's Authorized check is re-run here, INSIDE w.mu, at the moment
// the digest would land: Evict scrubs under the same lock after the
// credential is removed, so a peer revoked mid-fetch either fails this
// check or is scrubbed right after storing — its in-flight digest never
// outlives the revocation.
func (p *Peers) record(w *peerWatch, st *peerDigest, res fetchResult) error {
	auth := p.getAuthority()
	w.mu.Lock()
	defer w.mu.Unlock()
	st.bytesIn += res.bytes
	if res.err == nil && res.sealedBy != "" && auth != nil && !auth.Authorized(res.sealedBy) {
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
		return nil, fmt.Errorf("%w: %q", ErrFilterNotFound, name)
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
// never passes ""), retained for attribution and scrubbed by Evict. When
// sealed is true the body carries a MAC trailer keyed by sealer's
// credential and is verified before the envelope is opened.
func (p *Peers) Push(name, label string, rd io.Reader, sealer string, sealed bool) (PeerStatus, error) {
	// Labels are retained as map keys and echoed through the peers JSON, so
	// they follow the filter-name rule (bounded length, no control or
	// separator characters). The HTTP layer rejects bad labels with 400
	// before reaching here; this guards direct callers.
	if !ValidFilterName(label) {
		return PeerStatus{}, fmt.Errorf("service: invalid peer label %q (want %s)", label, filterName)
	}
	p.mu.Lock()
	w := p.watches[name]
	p.mu.Unlock()
	if w == nil {
		return PeerStatus{}, fmt.Errorf("%w: %q", ErrFilterNotFound, name)
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
	auth := p.getAuthority()
	if err == nil && sealed {
		if auth == nil {
			err = fmt.Errorf("%w: sealed push, but this node holds no mesh credentials", cachedigest.ErrEnvelopeUnauthenticated)
		} else {
			env, err = auth.Unseal(sealer, env)
		}
	}
	var d *cachedigest.PeerDigest
	if err == nil {
		d, err = cachedigest.OpenEnvelope(env)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Same revoked-mid-flight discipline as record: the principal must
	// still be authorized at the moment the digest lands.
	if err == nil && sealer != "" && auth != nil && !auth.Authorized(sealer) {
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

// Evict scrubs every digest attributed to the named peer principal across
// all filters — the teeth behind credential revocation. Fetched entries
// lose their digest (the refresh loop keeps polling and keeps failing
// while the peer's frames verify against a revoked credential); pushed
// entries are dropped entirely and their budget charge released. Returns
// how many digests were scrubbed.
func (p *Peers) Evict(peer string) int {
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
		out.Stale = age > p.staleAfter
	}
	return out
}

// Status snapshots every peer of one filter: configured peers in their
// configured order, then pushed peers sorted by label.
func (p *Peers) Status(name string) ([]PeerStatus, error) {
	p.mu.Lock()
	w := p.watches[name]
	p.mu.Unlock()
	if w == nil {
		return nil, fmt.Errorf("%w: %q", ErrFilterNotFound, name)
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]PeerStatus, 0, len(w.fetched)+len(w.pushed))
	for _, st := range w.fetched {
		out = append(out, p.statusOf(st))
	}
	labels := make([]string, 0, len(w.pushed))
	for l := range w.pushed {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		out = append(out, p.statusOf(w.pushed[l]))
	}
	return out, nil
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
	p.mu.Lock()
	w := p.watches[name]
	p.mu.Unlock()
	if w == nil {
		return nil
	}
	w.mu.RLock()
	states := make([]*peerDigest, 0, len(w.fetched)+len(w.pushed))
	states = append(states, w.fetched...)
	labels := make([]string, 0, len(w.pushed))
	for l := range w.pushed {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		states = append(states, w.pushed[l])
	}
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
			h.claim.Stale = age > p.staleAfter
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
