// Package engine is the protocol-agnostic command core between the wire
// codecs and the filter registry. Every ingress plane — the HTTP/JSON
// server in internal/httpapi, the RESP server in internal/resp — decodes
// its frames into the typed commands here and renders the typed results
// and errors back; validation, identity resolution, rate-limit
// charge/refund and registry dispatch happen exactly once, in this
// package. The paper's §8 mitigation story (per-client mutation budgets,
// pollution attribution) only holds if every path enforces the same
// rules; centralizing the pipeline is what closes the
// two-almost-identical-enforcement-paths gap an adversary hunts for.
//
// The pipeline for a mutating command is always:
//
//	validate → resolve filter → charge principal → dispatch → typed result
//
// with the charge taken after validation (malformed requests cost
// nothing) and before any state changes, and refunded only where
// validation can only happen inside the mutated subsystem (digest push).
//
// # Rate limiting and pollution accounting
//
// Every engine carries a limiter charging each mutation — add,
// add-batch, remove, remove-batch, digest push — against a token bucket
// keyed by (filter, principal); batch operations charge per item, because
// adversarial damage scales with insertions, not requests. The limiter is
// unexported, so no package but this one can charge or refund a budget.
// With a budget configured (ConfigureRateLimit, `evilbloom serve
// -rate-mutations`/`-rate-burst`), exhaustion answers 429 (HTTP) or -BUSY
// (RESP) with the exact refill time and applies nothing; the /v1 shim
// spends from the default filter's buckets, so the legacy surface is no
// side door. Client identity is the transport peer address unless
// -trust-proxy makes the X-Evilbloom-Client and X-Forwarded-For headers
// count, or the client authenticates. Reads are never charged.
//
// Accounting runs even unthrottled: GET /v2/filters/{name}/clients is the
// O(clients) attribution table (worst offenders first) and the stats
// document carries the aggregate, so "who polluted this filter" has an
// answer on every server. The table is bounded per filter
// (-rate-clients-max, default DefaultRateClientsMax) with LRU eviction
// folding evicted identities' counts into preserved aggregates — identity
// churn (trivial for a spoofing client behind -trust-proxy) cannot
// memory-exhaust the server through its own defense.
//
// Why it matters for the paper: §8 names restricting who may update the
// filter as the operational mitigation below keyed hashing, and Naor–Yogev
// formalize adversarial power as a query/insertion budget. Rate limiting
// implements exactly that budget: attack.RemotePollution runs the same
// chosen-insertion campaign against an unthrottled server (saturation) and
// a rate-limited one (damage capped at the burst, attacker named),
// completing the naive → rate-limited → hardened mitigation ladder the
// registry can A/B per filter.
package engine

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/mesh"
	"evilbloom/internal/service"
)

// Engine executes typed commands against a registry on behalf of
// principals. One engine is shared by every wire plane of a process, so
// budgets, accounting, auth state and the digest mesh are
// plane-independent.
type Engine struct {
	reg  *service.Registry
	lim  *limiter
	mesh *mesh.Peers

	authMu         sync.RWMutex
	authConfigured bool
	tokens         map[string]string
}

// New wraps reg in a command engine and installs the registry's lifecycle
// hook, so every filter — published before or after this call — gets an
// accounting table and a place in the mesh, and loses both on delete. One
// engine per registry: the registry has room for one hook.
func New(reg *service.Registry) *Engine {
	e := &Engine{reg: reg, lim: newLimiter(), mesh: mesh.New(), tokens: map[string]string{}}
	reg.SetLifecycle(e.lifecycle)
	return e
}

// lifecycle is the registry's hook: live is true when a filter is about to
// be published, false once it has been deleted (or the registry closes).
func (e *Engine) lifecycle(name string, live bool) {
	if live {
		e.mesh.Watch(name)
		e.lim.watch(name)
		return
	}
	e.mesh.Unwatch(name)
	e.lim.drop(name)
}

// Registry exposes the underlying registry for lifecycle wiring (data
// dirs, filter adoption) — not for item operations, which must go through
// engine commands.
func (e *Engine) Registry() *service.Registry { return e.reg }

// ConfigureRateLimit installs per-client mutation budgets (and accounting
// bounds) for every filter. One-shot; call before serving traffic.
func (e *Engine) ConfigureRateLimit(cfg RateLimitConfig) error { return e.lim.configure(cfg) }

// ConfigureMesh joins the node to a digest-exchange mesh: its fetch
// roster, topology, route quorum and credential roster in one one-shot
// configuration, before traffic. Peer names become principals ("peer:"
// plus the name), so they follow the client-identity rule.
func (e *Engine) ConfigureMesh(cfg mesh.PeerConfig) error {
	for _, entry := range cfg.Tokens {
		if name, _, _ := strings.Cut(entry, ":"); !validTokenName(name) {
			return fmt.Errorf("engine: peer token name %q: want printable ASCII without whitespace or ':', at most %d bytes",
				name, MaxClientIdentity)
		}
	}
	return e.mesh.Configure(cfg)
}

// RevokePeerToken removes one peer's mesh credential and scrubs every
// digest it authenticated, across all filters. Returns how many digests
// were evicted and whether the name was on the roster at all.
func (e *Engine) RevokePeerToken(name string) (evicted int, found bool) {
	return e.mesh.Revoke(name)
}

// peerLogin authenticates a combined "name:secret" mesh credential and
// returns the peer principal, whose bucket is its own.
func (e *Engine) peerLogin(token string) (Principal, error) {
	name, err := e.mesh.Login(token)
	if err != nil {
		return Principal{}, wrap(KindUnauthorized, err)
	}
	return Principal{ID: peerBucketPrefix + name, Name: name}, nil
}

// FilterRef is a resolved filter handle. Opaque: codecs route every store
// access through engine commands, so holding a ref grants no direct item
// operations. A ref pins its store — a filter deleted after resolution
// still serves the in-flight command, exactly as the old handlers
// behaved.
type FilterRef struct {
	f *service.Filter
}

// Name returns the filter's registry name.
func (fr FilterRef) Name() string { return fr.f.Name() }

// Durable reports whether the filter persists to a data directory.
func (fr FilterRef) Durable() bool { return fr.f.Durable() }

// Lookup resolves a filter name to a ref; unknown names classify as
// KindNotFound.
func (e *Engine) Lookup(name string) (FilterRef, error) {
	f, err := e.reg.Get(name)
	if err != nil {
		return FilterRef{}, err
	}
	return FilterRef{f: f}, nil
}

// ---------------------------------------------------------------------------
// Validation. The single source of the wire-independent item rules; codecs
// call these before staging pipelined work so they can reply in command
// order, and every command method applies them again on its own input.

// ValidateItem bounds a single item: non-empty, at most MaxItemLen bytes.
func ValidateItem(item []byte) error {
	if len(item) == 0 {
		return &ItemError{Index: -1}
	}
	if len(item) > service.MaxItemLen {
		return &ItemError{Index: -1, Len: len(item)}
	}
	return nil
}

// ValidateItems bounds a batch: non-empty, at most MaxBatch items, every
// item within ValidateItem's rule.
func ValidateItems(items [][]byte) error {
	if len(items) == 0 {
		return ErrEmptyBatch
	}
	if len(items) > service.MaxBatch {
		return &BatchTooLargeError{N: len(items)}
	}
	for i, it := range items {
		if len(it) == 0 {
			return &ItemError{Index: i}
		}
		if len(it) > service.MaxItemLen {
			return &ItemError{Index: i, Len: len(it)}
		}
	}
	return nil
}

// charge spends n mutations from p's bucket on ref's filter, converting a
// refusal into a BusyError carrying the retry hint both codecs serve.
func (e *Engine) charge(p Principal, ref FilterRef, n int) error {
	ok, retry := e.lim.allow(ref.f.Name(), p.ID, n)
	if !ok {
		return &BusyError{Filter: ref.f.Name(), N: n, RetrySecs: retrySecs(retry)}
	}
	return nil
}

// retrySecs renders a limiter retry duration as whole seconds, ceiled,
// floor one — the arithmetic previously duplicated by each plane.
func retrySecs(retry time.Duration) int64 {
	secs := int64(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ---------------------------------------------------------------------------
// Item commands.

// AddResult answers Add and AddBatch.
type AddResult struct {
	// Added is the number of items inserted.
	Added int
	// Count is the filter's distinct-insert estimate after the add.
	Count uint64
}

// Add inserts one item as p.
func (e *Engine) Add(p Principal, ref FilterRef, item []byte) (AddResult, error) {
	if err := ValidateItem(item); err != nil {
		return AddResult{}, err
	}
	if err := e.charge(p, ref, 1); err != nil {
		return AddResult{}, err
	}
	st := ref.f.Store()
	st.Add(item)
	return AddResult{Added: 1, Count: st.Count()}, nil
}

// AddBatch inserts a batch as p, charging per item: the pollution a batch
// can do scales with its size, so a 10000-item batch must not cost what a
// single add does.
func (e *Engine) AddBatch(p Principal, ref FilterRef, items [][]byte) (AddResult, error) {
	if err := ValidateItems(items); err != nil {
		return AddResult{}, err
	}
	if err := e.charge(p, ref, len(items)); err != nil {
		return AddResult{}, err
	}
	st := ref.f.Store()
	st.AddBatch(items)
	return AddResult{Added: len(items), Count: st.Count()}, nil
}

// Test answers membership for one item. Reads are not charged.
func (e *Engine) Test(ref FilterRef, item []byte) (bool, error) {
	if err := ValidateItem(item); err != nil {
		return false, err
	}
	return ref.f.Store().Test(item), nil
}

// TestBatch answers membership for a batch into dst (reused, like the
// store API it fronts). Reads are not charged.
func (e *Engine) TestBatch(ref FilterRef, dst []bool, items [][]byte) ([]bool, error) {
	if err := ValidateItems(items); err != nil {
		return nil, err
	}
	return ref.f.Store().TestBatch(dst, items), nil
}

// RemoveResult answers Remove.
type RemoveResult struct {
	Removed int
	Count   uint64
}

// Remove deletes one item as p. An item the filter believes absent is
// ErrNotInFilter — and the charge stands, exactly as it always has: the
// request was well-formed and the filter did the work of refusing it.
func (e *Engine) Remove(p Principal, ref FilterRef, item []byte) (RemoveResult, error) {
	if err := ValidateItem(item); err != nil {
		return RemoveResult{}, err
	}
	if err := e.charge(p, ref, 1); err != nil {
		return RemoveResult{}, err
	}
	st := ref.f.Store()
	removed, err := st.Remove(item)
	if err != nil {
		//lint:allow chargerefund charge stands: the request was well-formed; the store did the work of refusing it
		return RemoveResult{}, err
	}
	if !removed {
		//lint:allow chargerefund charge stands: probing for removable items must not be free (frozen semantics since PR 1)
		return RemoveResult{}, ErrNotInFilter
	}
	return RemoveResult{Removed: 1, Count: st.Count()}, nil
}

// RemoveBatchResult answers RemoveBatch; Removed is per item in input
// order (false marks items the filter believed absent and refused).
type RemoveBatchResult struct {
	Removed []bool
	Count   uint64
}

// RemoveBatch deletes a batch as p, charging per item. A backend without
// the remove capability fails the whole batch with the charge standing
// (charge-then-capability order, identical on every plane).
func (e *Engine) RemoveBatch(p Principal, ref FilterRef, items [][]byte) (RemoveBatchResult, error) {
	if err := ValidateItems(items); err != nil {
		return RemoveBatchResult{}, err
	}
	if err := e.charge(p, ref, len(items)); err != nil {
		return RemoveBatchResult{}, err
	}
	st := ref.f.Store()
	removed, err := st.RemoveBatch(items)
	if err != nil {
		//lint:allow chargerefund charge stands: charge-then-capability order is identical on every plane by design
		return RemoveBatchResult{}, err
	}
	return RemoveBatchResult{Removed: removed, Count: st.Count()}, nil
}

// ---------------------------------------------------------------------------
// Introspection commands.

// StatsResult answers Stats: the filter's own statistics plus the
// rate-limit aggregate, so one scrape shows both the damage and who was
// allowed to do it.
type StatsResult struct {
	Stats     service.Stats
	RateLimit RateLimitStats
}

// Stats snapshots one filter.
func (e *Engine) Stats(ref FilterRef) StatsResult {
	return StatsResult{
		Stats:     ref.f.Store().Stats(),
		RateLimit: e.lim.filterStats(ref.f.Name()),
	}
}

// Clients reports one filter's per-client mutation accounting.
func (e *Engine) Clients(ref FilterRef) ClientsReport {
	return e.lim.clients(ref.f.Name())
}

// FilterDescription is a filter's public self-description: parameters plus
// capability set, so a client can discover whether remove or snapshot will
// be accepted before trying. Naive filters publish their seed (the threat
// model's public implementation); hardened filters do not.
type FilterDescription struct {
	Name         string
	Variant      string
	Mode         string
	Shards       int
	K            int
	ShardBits    uint64
	Algorithm    string
	Seed         *uint64
	CounterWidth int
	Overflow     string
	Capabilities []string
	Durable      bool
}

// Describe assembles one filter's public self-description.
func (e *Engine) Describe(ref FilterRef) FilterDescription {
	return describeFilter(ref.f)
}

func describeFilter(f *service.Filter) FilterDescription {
	st := f.Store()
	d := FilterDescription{
		Name:         f.Name(),
		Variant:      st.Variant().String(),
		Mode:         st.Mode().String(),
		Shards:       st.Shards(),
		K:            st.K(),
		ShardBits:    st.ShardBits(),
		Capabilities: []string{"add", "test", "snapshot"},
		Durable:      f.Durable(),
	}
	switch st.Mode() {
	case service.ModeNaive:
		d.Algorithm = "murmur3-double-hashing"
		seed := st.Seed()
		d.Seed = &seed
	case service.ModeHardened:
		d.Algorithm = "siphash-2-4-recycling"
	}
	if st.Variant() == service.VariantCounting {
		d.CounterWidth = st.CounterWidth()
		d.Overflow = st.OverflowPolicy().String()
	}
	if st.Removable() {
		d.Capabilities = append(d.Capabilities, "remove")
	}
	if f.Durable() {
		d.Capabilities = append(d.Capabilities, "compact")
	}
	if st.Mode() == service.ModeNaive {
		// Digest export needs a family a peer can reproduce; hardened
		// filters answer a conflict on the digest command instead.
		d.Capabilities = append(d.Capabilities, "digest")
	}
	return d
}

// List describes every registered filter in name order.
func (e *Engine) List() []FilterDescription {
	filters := e.reg.List()
	out := make([]FilterDescription, len(filters))
	for i, f := range filters {
		out[i] = describeFilter(f)
	}
	return out
}

// ---------------------------------------------------------------------------
// Lifecycle commands.

// CreateFilter builds and registers a filter. Conflicts with existing
// state or limits classify as KindConflict; anything else about the spec
// is KindInvalid.
func (e *Engine) CreateFilter(name string, cfg service.Config) (FilterDescription, error) {
	f, err := e.reg.Create(name, cfg)
	if err != nil {
		return FilterDescription{}, createErr(err)
	}
	return describeFilter(f), nil
}

// CreateFromSnapshot builds a filter from a snapshot envelope.
func (e *Engine) CreateFromSnapshot(name string, rd io.Reader) (FilterDescription, error) {
	f, err := e.reg.CreateFromSnapshot(name, rd)
	if err != nil {
		return FilterDescription{}, createErr(err)
	}
	return describeFilter(f), nil
}

// createErr keeps conflict classification and downgrades the rest to
// KindInvalid: a creation failure that is not a state conflict is a bad
// request, never an internal fault.
func createErr(err error) error {
	if Classify(err) == KindConflict {
		return err
	}
	return wrap(KindInvalid, err)
}

// DeleteFilter removes a filter (and its durable directory).
func (e *Engine) DeleteFilter(name string) error {
	return e.reg.Delete(name)
}

// Snapshot serializes one filter into its versioned, checksummed envelope.
func (e *Engine) Snapshot(ref FilterRef) ([]byte, error) {
	return ref.f.Store().Snapshot()
}

// Compact forces a durable filter's snapshot+log rotation, returning the
// new generation; a memory-only filter classifies as KindConflict so
// operators notice the missing -data-dir instead of trusting a no-op.
func (e *Engine) Compact(ref FilterRef) (uint64, error) {
	if err := ref.f.Compact(); err != nil {
		return 0, err
	}
	return ref.f.Generation(), nil
}

// ---------------------------------------------------------------------------
// Digest and routing commands (§7 between nodes).

// DigestResult answers Digest.
type DigestResult struct {
	// Blob is the cache-digest envelope.
	Blob []byte
	// ETag is the entity tag for the generation the blob captures.
	ETag string
}

// DigestETag returns the current digest entity tag without serializing
// anything — the O(shards) read a conditional request costs.
func (e *Engine) DigestETag(ref FilterRef) string {
	st := ref.f.Store()
	return st.DigestETag(st.Generation())
}

// Digest exports one filter's cache digest. Hardened filters classify as
// KindConflict (their keyed family never travels).
func (e *Engine) Digest(ref FilterRef) (DigestResult, error) {
	st := ref.f.Store()
	blob, gen, err := st.DigestEnvelope()
	if err != nil {
		return DigestResult{}, err
	}
	return DigestResult{Blob: blob, ETag: st.DigestETag(gen)}, nil
}

// DigestExchangeResult answers DigestExchange.
type DigestExchangeResult struct {
	// Blob is the digest frame — a full envelope or a delta — sealed with
	// this node's mesh credential when Sealer is non-empty.
	Blob []byte
	// ETag is the entity tag for the content the frame brings the peer to.
	ETag string
	// Delta reports whether Blob is a delta frame.
	Delta bool
	// Sealer is this node's peer name when the frame carries a MAC trailer.
	Sealer string
}

// DigestExchange is the mesh-aware digest export: haveETag is the content
// the requesting peer last ACKed (a delta may be diffed against it),
// deltaOK its capability to apply one, peerToken the mesh credential it
// presented. A valid credential earns a response sealed with THIS node's
// own credential; presenting one to a node with no roster — or a bad one
// anywhere — is KindUnauthorized, never a silent downgrade to unsealed.
// The conditional-GET 304 path stays upstream of this call and keys off
// If-None-Match alone; haveETag only ever selects the frame kind.
func (e *Engine) DigestExchange(ref FilterRef, haveETag string, deltaOK bool, peerToken string) (DigestExchangeResult, error) {
	sealer, sealSecret := "", ""
	if peerToken != "" {
		if !e.mesh.Sealed() {
			return DigestExchangeResult{}, errf(KindUnauthorized,
				"peer credentials presented, but this node has no mesh roster (-peer-token)")
		}
		if _, err := e.peerLogin(peerToken); err != nil {
			return DigestExchangeResult{}, err
		}
		name, secret, ok := e.mesh.SelfCredential()
		if !ok {
			return DigestExchangeResult{}, errf(KindUnauthorized,
				"this node's own mesh credential was revoked; it can no longer seal digests")
		}
		sealer, sealSecret = name, secret
	}
	blob, etag, _, isDelta, err := ref.f.Store().DigestExchange(haveETag, deltaOK)
	if err != nil {
		return DigestExchangeResult{}, err
	}
	if sealer != "" {
		blob = cachedigest.Seal(blob, []byte(sealSecret))
	}
	return DigestExchangeResult{Blob: blob, ETag: etag, Delta: isDelta, Sealer: sealer}, nil
}

// DigestPush imports a sibling's digest envelope under label, as p. A
// pushed digest mutates this node's routing state, so it spends from the
// pusher's mutation budget like any other write. Unlike add/remove, the
// envelope can only be validated inside the push, so the charge is taken
// up front and refunded on any failure — a rejected push must not have
// cost the pusher budget or shown up as an allowed mutation. (One
// mutation per push, whatever the digest's size: a digest's routing
// leverage is bounded by the separate retention budget.)
//
// peerToken is the mesh credential presented alongside the push. On an
// authenticated mesh it is mandatory — an unauthenticated push is refused
// with KindUnauthorized before any budget is spent — and the body must be
// sealed by the presenting peer's credential. The charge then lands on the
// peer principal's bucket, not the transport identity's. Presenting a
// token to a node with no roster is refused too: credentials must never
// silently degrade.
func (e *Engine) DigestPush(p Principal, ref FilterRef, label string, rd io.Reader, peerToken string) (mesh.PeerStatus, error) {
	if !service.ValidFilterName(label) {
		return mesh.PeerStatus{}, errf(KindInvalid,
			"invalid peer label %q: labels follow the filter-name rule (%s)", label, service.FilterNamePattern())
	}
	sealer := ""
	sealed := false
	if e.mesh.Sealed() {
		if peerToken == "" {
			return mesh.PeerStatus{}, errf(KindUnauthorized,
				"this mesh requires a peer credential to push digests (%s)", mesh.HeaderPeerToken)
		}
		pp, err := e.peerLogin(peerToken)
		if err != nil {
			return mesh.PeerStatus{}, err
		}
		p, sealer, sealed = pp, pp.Name, true
	} else if peerToken != "" {
		return mesh.PeerStatus{}, errf(KindUnauthorized,
			"peer credentials presented, but this node has no mesh roster (-peer-token)")
	}
	if err := e.charge(p, ref, 1); err != nil {
		return mesh.PeerStatus{}, err
	}
	status, err := e.mesh.Push(ref.f.Name(), label, rd, sealer, sealed)
	if err != nil {
		e.lim.refund(ref.f.Name(), p.ID, 1)
		return mesh.PeerStatus{}, pushErr(err)
	}
	return status, nil
}

// pushErr keeps conflict/invalid/unauthorized classification and
// downgrades unknown push failures to KindInvalid — the envelope came off
// the wire, so an unclassified parse problem is the pusher's transfer
// problem.
func pushErr(err error) error {
	if k := Classify(err); k == KindConflict || k == KindInvalid || k == KindUnauthorized {
		return err
	}
	return wrap(KindInvalid, err)
}

// RouteResult answers Route: the §7 routing decision for one item — serve
// locally, probe a sibling whose digest claims it, or go to the origin. A
// probe sent because of a polluted or merely unlucky digest is the wasted
// round trip the paper's attack inflates.
type RouteResult struct {
	// Local reports whether this node's own filter claims the item.
	Local bool
	// Verdict is "local", "peer" or "origin".
	Verdict string
	// Peer names the first claiming sibling when Verdict is "peer".
	Peer string
	// Claims holds every sibling's individual answer, in peer order.
	Claims []mesh.PeerClaim
	// ClaimCount is how many siblings claim the item; Quorum is how many
	// it takes for a "peer" verdict. With quorum 1 this is PR 4's
	// first-claiming-peer rule; with quorum ≥ 2 a single poisoned digest
	// cannot swing the verdict by itself.
	ClaimCount int
	Quorum     int
}

// Route answers the routing question for one item: a committee vote over
// the held sibling digests, thresholded by the configured route quorum.
func (e *Engine) Route(ref FilterRef, item []byte) (RouteResult, error) {
	if err := ValidateItem(item); err != nil {
		return RouteResult{}, err
	}
	res := RouteResult{
		Local:  ref.f.Store().Test(item),
		Claims: e.mesh.Claims(ref.f.Name(), item),
		Quorum: e.mesh.Quorum(),
	}
	if res.Claims == nil {
		res.Claims = []mesh.PeerClaim{}
	}
	claiming, quorumMet := mesh.QuorumVerdict(res.Claims, res.Quorum)
	res.ClaimCount = claiming
	switch {
	case res.Local:
		res.Verdict = "local"
	case quorumMet:
		res.Verdict = "peer"
		for _, pc := range res.Claims {
			// Squid semantics: a digest routes until replaced, stale or not
			// — the Stale flag in the claim lets stricter callers opt out.
			if pc.Claims {
				res.Peer = pc.Peer
				break
			}
		}
	default:
		res.Verdict = "origin"
	}
	return res, nil
}

// PeerStatus reports one filter's per-peer digest accounting.
func (e *Engine) PeerStatus(ref FilterRef) ([]mesh.PeerStatus, error) {
	return e.mesh.Status(ref.f.Name())
}

// RefreshPeers synchronously fetches every configured peer's digest for
// one filter — the deterministic alternative to waiting out the jittered
// refresh interval. No configured peers classifies as KindConflict.
func (e *Engine) RefreshPeers(ref FilterRef) ([]mesh.PeerStatus, error) {
	return e.mesh.RefreshNow(ref.f.Name())
}
