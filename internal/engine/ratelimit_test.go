package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// manualClock pins a limiter to a settable instant so token arithmetic is
// exact in tests.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Unix(1_000_000, 0)}
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestLimiter builds a configured limiter on a manual clock.
func newTestLimiter(t *testing.T, cfg RateLimitConfig) (*limiter, *manualClock) {
	t.Helper()
	l := newLimiter()
	clock := newManualClock()
	l.now = clock.now
	if err := l.configure(cfg); err != nil {
		t.Fatal(err)
	}
	// Tables exist only for published filters; provision the names the
	// tests charge against, as the registry does at publish time.
	for _, f := range []string{"f", "g", "fa", "fb"} {
		l.watch(f)
	}
	return l, clock
}

// The token bucket must be exact: burst spends, per-second refill, a hard
// cap at burst, and Retry-After answers that name the precise deficit.
func TestLimiterTokenBucketExact(t *testing.T) {
	l, clock := newTestLimiter(t, RateLimitConfig{MutationsPerSec: 2, Burst: 4})

	for i := 0; i < 4; i++ {
		if ok, _ := l.allow("f", "alice", 1); !ok {
			t.Fatalf("allow %d within burst refused", i)
		}
	}
	ok, retry := l.allow("f", "alice", 1)
	if ok || retry != 500*time.Millisecond {
		t.Fatalf("spent bucket: ok=%v retry=%v, want refused in 500ms", ok, retry)
	}

	// 1s at 2/s refills 2 tokens: a 2-item batch fits, 3 do not.
	clock.advance(time.Second)
	if ok, _ := l.allow("f", "alice", 2); !ok {
		t.Fatal("refilled tokens not granted")
	}
	if ok, retry := l.allow("f", "alice", 3); ok || retry != 1500*time.Millisecond {
		t.Fatalf("3-item batch on empty bucket: ok=%v retry=%v, want refused in 1.5s", ok, retry)
	}

	// Refill caps at burst: a long idle stretch earns burst, not rate×dt.
	clock.advance(time.Hour)
	if ok, _ := l.allow("f", "alice", 4); !ok {
		t.Fatal("full burst after long idle refused")
	}
	if ok, _ := l.allow("f", "alice", 1); ok {
		t.Fatal("tokens beyond burst were accumulated")
	}

	// A charge larger than the burst can never succeed; the retry answer
	// still names the full deficit's refill time.
	clock.advance(time.Hour)
	if ok, retry := l.allow("f", "alice", 10); ok || retry != 3*time.Second {
		t.Fatalf("over-burst batch: ok=%v retry=%v, want refused in 3s", ok, retry)
	}

	// Throttled charges consume nothing: the burst is still intact.
	if ok, _ := l.allow("f", "alice", 4); !ok {
		t.Fatal("refused charge consumed tokens")
	}

	// Budgets are per client and per filter: fresh identities and fresh
	// filters start with a full burst.
	if ok, _ := l.allow("f", "bob", 4); !ok {
		t.Fatal("second client shares the first client's bucket")
	}
	if ok, _ := l.allow("g", "alice", 4); !ok {
		t.Fatal("second filter shares the first filter's bucket")
	}
}

func TestLimiterConfigValidation(t *testing.T) {
	bad := []RateLimitConfig{
		{MutationsPerSec: -1},
		{MutationsPerSec: 1, Burst: -2},
		{Burst: 5}, // burst without a rate throttles nothing
		{MutationsPerSec: 1, MaxClients: -3},
	}
	for _, cfg := range bad {
		if err := newLimiter().configure(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	l := newLimiter()
	l.watch("f")
	if err := l.configure(RateLimitConfig{MutationsPerSec: 5}); err != nil {
		t.Fatal(err)
	}
	// Burst defaults to one second of budget...
	if ok, _ := l.allow("f", "c", 5); !ok {
		t.Error("default burst below one second of budget")
	}
	if ok, _ := l.allow("f", "c", 1); ok {
		t.Error("default burst above one second of budget")
	}
	// ...and configuration is one-shot.
	if err := l.configure(RateLimitConfig{MutationsPerSec: 1}); err == nil {
		t.Error("reconfiguration accepted")
	}
}

// Without a configured budget the limiter is pure accounting: everything is
// allowed, and the attribution table still fills.
func TestLimiterAccountingOnly(t *testing.T) {
	l := newLimiter()
	l.watch("f")
	for i := 0; i < 100; i++ {
		if ok, _ := l.allow("f", "bulk", 10); !ok {
			t.Fatal("accounting-only limiter refused a mutation")
		}
	}
	rep := l.clients("f")
	if rep.Enabled {
		t.Error("unconfigured limiter reports throttling enabled")
	}
	if len(rep.Clients) != 1 || rep.Clients[0].Client != "bulk" || rep.Clients[0].Allowed != 1000 {
		t.Errorf("accounting table: %+v", rep.Clients)
	}
	st := l.filterStats("f")
	if st.AllowedMutations != 1000 || st.ThrottledMutations != 0 || st.Clients != 1 {
		t.Errorf("aggregate: %+v", st)
	}
}

// The accounting table is bounded: beyond MaxClients the least-recently
// seen identity is evicted, with its counts folded into the aggregate so
// identity churn loses no attribution total.
func TestLimiterLRUEviction(t *testing.T) {
	l, _ := newTestLimiter(t, RateLimitConfig{MutationsPerSec: 1, Burst: 2, MaxClients: 3})
	for i := 0; i < 3; i++ {
		l.allow("f", fmt.Sprintf("c%d", i), 1)
	}
	l.allow("f", "c0", 1) // touch c0: c1 becomes least recent
	l.allow("f", "c3", 1) // evicts c1
	rep := l.clients("f")
	if len(rep.Clients) != 3 {
		t.Fatalf("table holds %d clients, want 3", len(rep.Clients))
	}
	for _, cs := range rep.Clients {
		if cs.Client == "c1" {
			t.Error("least-recently-seen client survived eviction")
		}
	}
	if rep.EvictedClients != 1 || rep.EvictedAllowed != 1 {
		t.Errorf("eviction accounting: %+v", rep)
	}
	// The aggregate still totals every mutation ever allowed (5 singles).
	if st := l.filterStats("f"); st.AllowedMutations != 5 || st.EvictedClients != 1 {
		t.Errorf("aggregate after eviction: %+v", st)
	}

	// Churning many identities through the table keeps it at the cap and
	// preserves the exact total.
	for i := 0; i < 500; i++ {
		l.allow("f", fmt.Sprintf("spoof-%d", i), 1)
	}
	rep = l.clients("f")
	if len(rep.Clients) != 3 {
		t.Fatalf("churned table holds %d clients, want 3", len(rep.Clients))
	}
	var live uint64
	for _, cs := range rep.Clients {
		live += cs.Allowed + cs.Throttled
	}
	if total := live + rep.EvictedAllowed + rep.EvictedThrottled; total != 505 {
		t.Errorf("attribution total %d after churn, want 505", total)
	}
}

// Concurrent clients across several filters, with identity churn forcing
// LRU eviction mid-traffic: under -race this exercises every lock, and the
// allowed+throttled totals must exactly equal the charges submitted.
func TestLimiterConcurrentAccounting(t *testing.T) {
	l, _ := newTestLimiter(t, RateLimitConfig{MutationsPerSec: 1000, Burst: 50, MaxClients: 8})
	const (
		goroutines = 8
		perG       = 300
	)
	filters := []string{"fa", "fb"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				filter := filters[i%len(filters)]
				// A stable identity per goroutine plus a churning one, so
				// eviction runs concurrently with charging.
				id := fmt.Sprintf("worker-%d", g)
				if i%5 == 0 {
					id = fmt.Sprintf("churn-%d-%d", g, i)
				}
				l.allow(filter, id, 1+i%3)
				if i%50 == 0 {
					l.clients(filter)
					l.filterStats(filter)
				}
			}
		}(g)
	}
	wg.Wait()
	var want uint64
	for i := 0; i < perG; i++ {
		want += uint64(1 + i%3)
	}
	want *= goroutines
	var got uint64
	for _, f := range filters {
		st := l.filterStats(f)
		got += st.AllowedMutations + st.ThrottledMutations
	}
	if got != want {
		t.Errorf("accounted %d mutations across filters, charged %d", got, want)
	}
}

// A pathologically small rate must clamp the Retry-After arithmetic
// instead of overflowing time.Duration into nonsense.
func TestRetryAfterClampedForTinyRates(t *testing.T) {
	l, _ := newTestLimiter(t, RateLimitConfig{MutationsPerSec: 1e-12, Burst: 1})
	if ok, _ := l.allow("f", "c", 1); !ok {
		t.Fatal("burst refused")
	}
	ok, retry := l.allow("f", "c", 1)
	if ok {
		t.Fatal("second charge allowed")
	}
	if retry <= 0 {
		t.Fatalf("Retry-After overflowed: %v", retry)
	}
	if want := time.Duration(maxRetrySeconds) * time.Second; retry != want {
		t.Errorf("Retry-After %v, want the clamp %v", retry, want)
	}
}
