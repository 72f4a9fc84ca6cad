package service

import (
	"container/list"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"
)

// Rate-limit subsystem: per-client mutation budgets on the v2 mutation
// plane, the paper's own suggested operational defense against
// chosen-insertion pollution (§8) made concrete. Every mutation — add,
// add-batch, remove, remove-batch, digest push — is charged against a
// token bucket keyed by (filter, client identity); batch operations charge
// per item, because the damage an adversary does scales with insertions,
// not with HTTP round trips. Exhausted budgets answer 429 with Retry-After.
//
// The same table doubles as pollution accounting: even with throttling
// disabled (the default) every mutation is attributed to a client identity,
// so GET /v2/filters/{name}/clients names who filled a filter — the
// forensic half of the defense. The table itself is bounded: at most
// MaxClients identities per filter, least-recently-seen evicted first with
// their counts folded into aggregate totals, so identity churn (trivial for
// a spoofing client behind -trust-proxy) cannot memory-exhaust the server
// through its own defense.
//
// Rate limiting is the deployable mitigation tier below keyed hashing: a
// naive filter stays attackable in principle, but the attacker's insertion
// budget — and with it the reachable FPR — is capped. The registry can A/B
// the full ladder per filter: naive unthrottled, naive rate-limited,
// hardened keyed. attack.RemotePollution measures the middle tier, over
// either wire plane.

// Rate-limit defaults; RateLimitConfig fields override them.
// DefaultRateClientsMax bounds each filter's client accounting table.
const DefaultRateClientsMax = 1024

// ClientIdentityHeader is the header a client may use to self-identify for
// rate limiting and accounting. It is honored only when the server runs
// with -trust-proxy: identity headers are claims, and only a trusted proxy
// tier makes them worth believing.
const ClientIdentityHeader = "X-Evilbloom-Client"

// RateLimitConfig tunes the registry's mutation rate limiting.
type RateLimitConfig struct {
	// MutationsPerSec is each client's sustained per-filter mutation budget
	// (items per second, not requests: batches charge per item). Zero
	// disables throttling; accounting still runs.
	MutationsPerSec float64
	// Burst is the bucket capacity — how many mutations a client may spend
	// at once after idling. Defaults to one second of budget, floor 1.
	// Requires MutationsPerSec.
	Burst float64
	// MaxClients bounds each filter's accounting table
	// (DefaultRateClientsMax when zero); least-recently-seen identities are
	// evicted beyond it, their counts preserved in aggregate.
	MaxClients int
	// TrustProxy honors X-Evilbloom-Client and X-Forwarded-For (rightmost,
	// nearest-proxy entry) for client identity instead of the transport
	// peer address. Enable only behind a proxy tier that sets or sanitizes
	// those headers: with it, identities are claims, and per-identity
	// throttling is only as strong as the claim's source.
	TrustProxy bool
}

// EffectiveBurst resolves the burst the configuration yields: the explicit
// Burst, else one second of budget with a floor of one mutation. The
// single authority for the defaulting rule — the serve banner prints it
// and configure installs it.
func (c RateLimitConfig) EffectiveBurst() float64 {
	if c.Burst > 0 {
		return c.Burst
	}
	return math.Max(c.MutationsPerSec, 1)
}

// Limiter charges mutations against per-(filter, client) token buckets and
// keeps the per-client accounting table. The zero-configuration Limiter
// (every registry has one) throttles nothing but still accounts, so
// pollution attribution works on every server.
type Limiter struct {
	mu         sync.RWMutex
	rate       float64 // tokens (mutations) per second; 0 = no throttling
	burst      float64
	maxClients int
	trustProxy bool
	configured bool
	// now is the clock, swappable so tests pin token arithmetic exactly.
	now     func() time.Time
	filters map[string]*filterClients
}

// filterClients is one filter's accounting table.
type filterClients struct {
	mu      sync.Mutex
	clients map[string]*clientEntry
	// lru orders entries by last use, front = most recent; Element values
	// are *clientEntry.
	lru list.List
	// evicted* preserve the totals of evicted entries so aggregate counts
	// survive table churn.
	evicted          uint64
	evictedAllowed   uint64
	evictedThrottled uint64
}

// clientEntry is one client's bucket and counters within one filter.
type clientEntry struct {
	id   string
	elem *list.Element
	// tokens and last implement the bucket: tokens refill at the limiter's
	// rate since last, capped at burst.
	tokens float64
	last   time.Time
	// allowed and throttled count mutations (items, not requests).
	allowed   uint64
	throttled uint64
	lastSeen  time.Time
}

// newLimiter builds the accounting-only default.
func newLimiter() *Limiter {
	return &Limiter{
		maxClients: DefaultRateClientsMax,
		now:        time.Now,
		filters:    make(map[string]*filterClients),
	}
}

// configure installs the rate-limit configuration. One-shot, before
// traffic, like the peer mesh.
func (l *Limiter) configure(cfg RateLimitConfig) error {
	if cfg.MutationsPerSec < 0 || math.IsNaN(cfg.MutationsPerSec) || math.IsInf(cfg.MutationsPerSec, 0) {
		return fmt.Errorf("service: mutation rate %v must be a finite non-negative number", cfg.MutationsPerSec)
	}
	if cfg.Burst < 0 || math.IsNaN(cfg.Burst) || math.IsInf(cfg.Burst, 0) {
		return fmt.Errorf("service: mutation burst %v must be a finite non-negative number", cfg.Burst)
	}
	if cfg.Burst > 0 && cfg.MutationsPerSec == 0 {
		return fmt.Errorf("service: a mutation burst needs a mutation rate; burst alone throttles nothing")
	}
	if cfg.MaxClients < 0 {
		return fmt.Errorf("service: max clients %d must be non-negative", cfg.MaxClients)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.configured {
		return fmt.Errorf("service: rate limiting already configured")
	}
	l.configured = true
	l.rate = cfg.MutationsPerSec
	if l.rate > 0 {
		l.burst = cfg.EffectiveBurst()
	}
	if cfg.MaxClients > 0 {
		l.maxClients = cfg.MaxClients
	}
	l.trustProxy = cfg.TrustProxy
	return nil
}

// Enabled reports whether mutation throttling is active (accounting always
// is).
func (l *Limiter) Enabled() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.rate > 0
}

// TrustProxy reports whether client-identity headers are honored.
func (l *Limiter) TrustProxy() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.trustProxy
}

// maxRetrySeconds clamps Retry-After arithmetic: a pathologically small
// rate would otherwise overflow time.Duration (deficit/rate in nanoseconds
// past MaxInt64) and wrap into a nonsense answer. Past ~68 years the bucket
// is effectively never refilling anyway.
const maxRetrySeconds = float64(1 << 31)

// Allow charges n mutations on filter to client. When the client's bucket
// covers the charge (or throttling is disabled) it records the mutations as
// allowed and returns true; otherwise nothing is consumed, the mutations
// are recorded as throttled, and retry says how long until the bucket
// refills enough — the Retry-After the HTTP layer serves with its 429. A
// charge larger than the burst can never succeed (retry reports the full
// deficit's refill time); clients must split such batches.
//
// Tables exist only for watched (published) filters: a charge against an
// unknown filter — a mutation draining against a just-deleted store — is
// allowed without recording, so an in-flight request racing Delete cannot
// resurrect the dropped accounting and leak it into a successor filter of
// the same name.
func (l *Limiter) Allow(filter, client string, n int) (ok bool, retry time.Duration) {
	if n <= 0 {
		return true, 0
	}
	l.mu.RLock()
	rate, burst, maxClients, now := l.rate, l.burst, l.maxClients, l.now()
	fc := l.filters[filter]
	l.mu.RUnlock()
	if fc == nil {
		return true, 0
	}

	fc.mu.Lock()
	defer fc.mu.Unlock()
	e := fc.clients[client]
	if e == nil {
		fc.evictFor(1, maxClients)
		e = &clientEntry{id: client, tokens: burst, last: now}
		e.elem = fc.lru.PushFront(e)
		fc.clients[client] = e
	} else {
		fc.lru.MoveToFront(e.elem)
	}
	e.lastSeen = now
	if rate > 0 {
		e.refill(rate, burst, now)
		need := float64(n)
		if e.tokens < need {
			e.throttled += uint64(n)
			secs := (need - e.tokens) / rate
			if secs > maxRetrySeconds {
				secs = maxRetrySeconds
			}
			return false, time.Duration(math.Ceil(secs * float64(time.Second)))
		}
		e.tokens -= need
	}
	e.allowed += uint64(n)
	return true, 0
}

// Refund hands n mutations back to client's bucket on filter and reverses
// their accounting — for the write paths whose validation happens inside
// the subsystem they mutate (digest push): the charge is taken before the
// envelope is parsed, and if nothing was applied the client must not have
// paid. Refunding an identity the table no longer holds (evicted, filter
// dropped) is a no-op: the charge is already aggregate history.
func (l *Limiter) Refund(filter, client string, n int) {
	if n <= 0 {
		return
	}
	l.mu.RLock()
	rate, burst := l.rate, l.burst
	fc := l.filters[filter]
	l.mu.RUnlock()
	if fc == nil {
		return
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	e := fc.clients[client]
	if e == nil {
		return
	}
	if rate > 0 {
		e.tokens = math.Min(burst, e.tokens+float64(n))
	}
	if un := uint64(n); e.allowed >= un {
		e.allowed -= un
	} else {
		e.allowed = 0
	}
}

// watch provisions a filter's accounting table at publish time — the same
// moment peers.watch runs, and for the same reason: state is created
// before traffic can reach the filter and torn down exactly once by
// Delete, never resurrected by stragglers.
func (l *Limiter) watch(filter string) {
	l.filterClients(filter)
}

// refill advances the bucket to now.
func (e *clientEntry) refill(rate, burst float64, now time.Time) {
	if dt := now.Sub(e.last).Seconds(); dt > 0 {
		e.tokens = math.Min(burst, e.tokens+dt*rate)
	}
	e.last = now
}

// evictFor makes room for n new entries under max, folding evicted entries'
// counts into the aggregate totals. The caller holds fc.mu.
func (fc *filterClients) evictFor(n, max int) {
	for len(fc.clients)+n > max {
		back := fc.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*clientEntry)
		fc.lru.Remove(back)
		delete(fc.clients, e.id)
		fc.evicted++
		fc.evictedAllowed += e.allowed
		fc.evictedThrottled += e.throttled
	}
}

// filterClients returns (creating if needed) one filter's table.
func (l *Limiter) filterClients(filter string) *filterClients {
	l.mu.Lock()
	defer l.mu.Unlock()
	fc := l.filters[filter]
	if fc == nil {
		fc = &filterClients{clients: make(map[string]*clientEntry)}
		l.filters[filter] = fc
	}
	return fc
}

// drop discards a deleted filter's accounting.
func (l *Limiter) drop(filter string) {
	l.mu.Lock()
	delete(l.filters, filter)
	l.mu.Unlock()
}

// ClientStatus is one client's accounting as served on GET .../clients.
type ClientStatus struct {
	// Client is the identity mutations were attributed to: the transport
	// peer address, or (with -trust-proxy) a header-claimed identity.
	Client string `json:"client"`
	// Allowed and Throttled count mutations (items, not requests).
	Allowed   uint64 `json:"allowed"`
	Throttled uint64 `json:"throttled,omitempty"`
	// Tokens is the bucket's current charge capacity (throttling only).
	Tokens float64 `json:"tokens,omitempty"`
	// IdleSeconds is the time since the client's last mutation attempt.
	IdleSeconds float64 `json:"idle_seconds"`
}

// ClientsReport answers GET /v2/filters/{name}/clients: the per-client
// mutation accounting, worst offenders first.
type ClientsReport struct {
	// Enabled reports whether throttling is active; accounting always is.
	Enabled bool `json:"enabled"`
	// MutationsPerSec and Burst echo the active budget (throttling only).
	MutationsPerSec float64 `json:"mutations_per_sec,omitempty"`
	Burst           float64 `json:"burst,omitempty"`
	// MaxClients is the table bound; beyond it the least-recently-seen
	// client is evicted into the aggregate Evicted* totals.
	MaxClients int `json:"max_clients"`
	// Clients lists tracked identities, most-throttled (then most-allowed)
	// first, so the top entry is the likeliest polluter.
	Clients []ClientStatus `json:"clients"`
	// EvictedClients counts identities evicted from the table; their
	// mutation counts are preserved below.
	EvictedClients   uint64 `json:"evicted_clients,omitempty"`
	EvictedAllowed   uint64 `json:"evicted_allowed,omitempty"`
	EvictedThrottled uint64 `json:"evicted_throttled,omitempty"`
}

// Clients snapshots one filter's accounting table in O(clients).
func (l *Limiter) Clients(filter string) ClientsReport {
	l.mu.RLock()
	rate, burst, maxClients, now := l.rate, l.burst, l.maxClients, l.now()
	fc := l.filters[filter]
	l.mu.RUnlock()
	rep := ClientsReport{
		Enabled:    rate > 0,
		MaxClients: maxClients,
		Clients:    []ClientStatus{},
	}
	if rep.Enabled {
		rep.MutationsPerSec, rep.Burst = rate, burst
	}
	if fc == nil {
		return rep
	}
	fc.mu.Lock()
	rep.EvictedClients = fc.evicted
	rep.EvictedAllowed = fc.evictedAllowed
	rep.EvictedThrottled = fc.evictedThrottled
	for _, e := range fc.clients {
		cs := ClientStatus{
			Client:      e.id,
			Allowed:     e.allowed,
			Throttled:   e.throttled,
			IdleSeconds: now.Sub(e.lastSeen).Seconds(),
		}
		if rep.Enabled {
			// Project the lazy refill forward for display without mutating
			// the bucket.
			cs.Tokens = math.Min(burst, e.tokens+now.Sub(e.last).Seconds()*rate)
		}
		rep.Clients = append(rep.Clients, cs)
	}
	fc.mu.Unlock()
	sort.Slice(rep.Clients, func(i, j int) bool {
		a, b := rep.Clients[i], rep.Clients[j]
		if a.Throttled != b.Throttled {
			return a.Throttled > b.Throttled
		}
		if a.Allowed != b.Allowed {
			return a.Allowed > b.Allowed
		}
		return a.Client < b.Client
	})
	return rep
}

// RateLimitStats is the aggregate rate-limit slice of a filter's stats.
type RateLimitStats struct {
	Enabled         bool    `json:"enabled"`
	MutationsPerSec float64 `json:"mutations_per_sec,omitempty"`
	Burst           float64 `json:"burst,omitempty"`
	// Clients is the current table size; EvictedClients counts identities
	// aged out of it (their mutations stay in the totals below).
	Clients        int    `json:"clients"`
	EvictedClients uint64 `json:"evicted_clients,omitempty"`
	// AllowedMutations and ThrottledMutations total every charge ever made
	// against the filter, across live and evicted clients.
	AllowedMutations   uint64 `json:"allowed_mutations"`
	ThrottledMutations uint64 `json:"throttled_mutations"`
}

// FilterStats aggregates one filter's accounting in O(clients).
func (l *Limiter) FilterStats(filter string) RateLimitStats {
	l.mu.RLock()
	rate, burst := l.rate, l.burst
	fc := l.filters[filter]
	l.mu.RUnlock()
	st := RateLimitStats{Enabled: rate > 0}
	if st.Enabled {
		st.MutationsPerSec, st.Burst = rate, burst
	}
	if fc == nil {
		return st
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	st.Clients = len(fc.clients)
	st.EvictedClients = fc.evicted
	st.AllowedMutations = fc.evictedAllowed
	st.ThrottledMutations = fc.evictedThrottled
	for _, e := range fc.clients {
		st.AllowedMutations += e.allowed
		st.ThrottledMutations += e.throttled
	}
	return st
}

// IdentityFromRemoteAddr resolves the transport-peer identity every wire
// plane charges mutations to when no trusted proxy claim applies: the host
// part of a listener-reported remote address. The RESP plane uses it
// directly (no headers exist there to trust), so a client exhausting its
// budget over HTTP is equally exhausted over RESP — one bucket per peer
// host, not per plane. (Header-claimed and authenticated identities are
// resolved a layer up, in internal/engine, which owns the Principal
// abstraction; the limiter itself only ever sees opaque bucket keys.)
func IdentityFromRemoteAddr(remoteAddr string) string {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil || host == "" {
		return remoteAddr
	}
	return host
}

// MaxClientIdentity bounds claimed client identities (header-supplied or
// token names): they become map keys and JSON strings echoed back on the
// clients endpoint.
const MaxClientIdentity = 128

// ValidClientIdentity bounds claimed identities: non-empty, at most
// MaxClientIdentity bytes, printable ASCII with no whitespace.
func ValidClientIdentity(id string) bool {
	if id == "" || len(id) > MaxClientIdentity {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= 0x20 || id[i] >= 0x7f {
			return false
		}
	}
	return true
}

// SetNow swaps the limiter's clock — a test hook, so token arithmetic can
// be pinned exactly from packages that drive the limiter through a wire
// plane rather than in-process.
func (l *Limiter) SetNow(now func() time.Time) {
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}
