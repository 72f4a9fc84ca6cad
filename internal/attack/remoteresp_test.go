package attack_test

import (
	"context"
	"net"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"evilbloom/internal/attack"
	"evilbloom/internal/engine"
	"evilbloom/internal/hashes"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/resp"
	"evilbloom/internal/service"
	"evilbloom/internal/urlgen"
)

// startRESP provisions a registry with one filter under cfg and a RESP
// listener over it, returning the address and the registry.
func startRESP(t *testing.T, filter string, cfg service.Config) (string, *service.Registry, *engine.Engine) {
	t.Helper()
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	if _, err := reg.Create(filter, cfg); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := resp.NewServer(reg)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-serveErr
	})
	return ln.Addr().String(), reg, srv.Engine()
}

// dialRESP opens a client on addr and adapts filter to attack.Target.
func dialRESP(t *testing.T, addr, filter string) *resp.Target {
	t.Helper()
	cli, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return resp.NewTarget(cli, filter)
}

// respTarget is startRESP followed by dialRESP.
func respTarget(t *testing.T, filter string, cfg service.Config) (*resp.Target, *service.Registry) {
	t.Helper()
	addr, reg, _ := startRESP(t, filter, cfg)
	return dialRESP(t, addr, filter), reg
}

// paperGeometry is the §4.1 experiment's small single-shard naive target:
// the seed is public, so the adversary's shadow view predicts every index.
var paperGeometry = service.Config{
	Shards:    1,
	ShardBits: 640,
	HashCount: 4,
	Seed:      42,
}

// An unthrottled campaign over RESP behaves exactly like the HTTP one: the
// shadow view tracks the server's ground truth bit for bit, and greedy
// chosen insertions, shipped as pipelined BF.MADD batches, drive the filter
// toward saturation far faster than honest traffic would.
func TestPollutionSaturatesNaiveTarget(t *testing.T) {
	target, _ := respTarget(t, "web", paperGeometry)
	rep, err := (&attack.RemotePollution{
		Target:   target,
		Traffic:  urlgen.New(7),
		Requests: 200,
		Batch:    16,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// PolluteGreedy stops early once the shadow view says the filter is
	// saturated, so Accepted may fall short of Requests — but nothing may
	// bounce on an unthrottled target.
	if rep.Throttled != 0 {
		t.Fatalf("busy=%d on an unthrottled target", rep.Throttled)
	}
	if rep.Accepted < 100 || rep.Accepted > 200 {
		t.Fatalf("inserted=%d, want within [100, 200]", rep.Accepted)
	}
	// With no refusals the shadow is exact: the attacker knows the server's
	// occupancy without ever reading it back.
	if rep.ShadowWeight != rep.ServerWeight {
		t.Fatalf("shadow weight %d != server weight %d; the shadow view drifted", rep.ShadowWeight, rep.ServerWeight)
	}
	if rep.ServerCount != uint64(rep.Accepted) {
		t.Fatalf("server count = %d, want %d (every acknowledged insertion landed)", rep.ServerCount, rep.Accepted)
	}
	// Greedy chosen insertions into m=640 saturate: each forged item is
	// chosen to set many fresh bits, so the resulting FPR dwarfs the
	// honest-traffic level (~0.11 for 200 random insertions at this
	// geometry).
	if rep.ServerFPR < 0.5 {
		t.Fatalf("server FPR after campaign = %g, want >= 0.5 (saturation)", rep.ServerFPR)
	}
	if rep.ForgeAttempts == 0 {
		t.Fatal("no forging work recorded")
	}
}

// A rate-limited target refuses most of the campaign with -BUSY: the
// mitigation holds on the binary plane too. The attacker sees every refusal,
// so her shadow keeps exactly what landed — no more than the server holds.
func TestPollutionThrottledByRateLimit(t *testing.T) {
	addr, _, eng := startRESP(t, "web", paperGeometry)
	if err := eng.ConfigureRateLimit(engine.RateLimitConfig{MutationsPerSec: 0.1, Burst: 32}); err != nil {
		t.Fatal(err)
	}
	rep, err := (&attack.RemotePollution{
		Target:   dialRESP(t, addr, "web"),
		Traffic:  urlgen.New(8),
		Requests: 100,
		Batch:    16,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted+rep.Throttled != 100 {
		t.Fatalf("inserted=%d busy=%d, want them to partition 100 attempts", rep.Accepted, rep.Throttled)
	}
	// Burst 32 at a 0.1/s refill: at most ~32 items land, the rest bounce.
	if rep.Throttled < 60 {
		t.Fatalf("busy=%d, want the bulk of the campaign refused", rep.Throttled)
	}
	if rep.Accepted > 40 {
		t.Fatalf("inserted=%d, want the limiter to hold near its burst", rep.Accepted)
	}
	if rep.ShadowWeight != rep.ServerWeight {
		t.Fatalf("shadow %d != server %d; a refused batch must leave no trace in the shadow",
			rep.ShadowWeight, rep.ServerWeight)
	}
	if rep.LastRetryAfter <= 0 {
		t.Error("-BUSY carried no usable retry delay")
	}
}

// Hardened targets publish no seed over BF.INFO, so the campaign cannot
// even start — the same refusal the HTTP campaign makes.
func TestPollutionNeedsPublishedSeed(t *testing.T) {
	cfg := paperGeometry
	cfg.Mode = service.ModeHardened
	target, _ := respTarget(t, "web", cfg)
	if _, err := (&attack.RemotePollution{Target: target, Requests: 10, Traffic: urlgen.New(9)}).Run(); err == nil {
		t.Fatal("campaign against a hardened target succeeded; it must refuse (no seed published)")
	}
}

// countingGeometry is the paper's Fig 3 geometry (m=3200, k=4) as one
// counting shard — the single-filter setting of §4.3. Only the naive target
// takes a seed; a hardened filter's keys are server-side. Both of them are
// pinned: hardened placement folds the route key into its one PRF key, so a
// drawn route key would make every run a different filter.
func countingGeometry(mode service.Mode) service.Config {
	cfg := service.Config{
		Variant:   service.VariantCounting,
		Mode:      mode,
		Shards:    1,
		ShardBits: 3200,
		HashCount: 4,
	}
	if mode == service.ModeNaive {
		cfg.Seed = 7
	} else {
		cfg.Key = []byte("0123456789abcdef")
		cfg.RouteKey = []byte("fedcba9876543210")
	}
	return cfg
}

// countPresent asks the target how many of items it still believes present.
func countPresent(t *testing.T, target attack.Target, items [][]byte) int {
	t.Helper()
	n := 0
	for _, it := range items {
		ok, err := target.Test(it)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			n++
		}
	}
	return n
}

// The §4.3 deletion campaign carried over the RESP plane: against a naive
// counting server the adversary evicts an honest victim through BF.MADD
// covers and CF.DEL removals; the hardened server under the identical
// campaign refuses every crafted removal — 100% — and keeps the victim
// present. A crafted removal that happened to hit k occupied counters of the
// keyed filter would be accepted, so "100%" is a property of the keys; with
// both keys pinned (countingGeometry) the outcome is fixed, not likely.
func TestDeletionCampaignNaiveVsHardened(t *testing.T) {
	victim := []byte("http://honest.example.com/blocked-page")

	// --- Naive target: seed published via BF.INFO, family reconstructible,
	// victim evictable.
	naive, _ := respTarget(t, "blocklist", countingGeometry(service.ModeNaive))
	honest := honestWorkload(t, naive, victim)
	adv, err := attack.NewRemoteDeletionFromInfo(naive, urlgen.New(11))
	if err != nil {
		t.Fatalf("reconstructing family from BF.INFO: %v", err)
	}
	rep, err := adv.Evict(victim, 100000, 30)
	if err != nil {
		t.Fatalf("campaign against naive target: %v", err)
	}
	if !rep.Evicted {
		t.Fatalf("naive target resisted: %+v", rep)
	}
	if countPresent(t, naive, [][]byte{victim}) != 0 {
		t.Error("server still reports the evicted victim present")
	}
	// Targeted, not scattershot: the honest blocklist survives almost
	// untouched (an item sharing a drained counter may be collateral).
	if survivors := countPresent(t, naive, honest); survivors < len(honest)-3 {
		t.Errorf("only %d/%d honest items survived; the attack should be targeted", survivors, len(honest))
	}
	t.Logf("naive: evicted in %d rounds, %d removals accepted, %d covers, %d attempts",
		rep.Rounds, rep.Accepted, rep.CoverAdds, adv.Attempts)

	// --- Hardened target: BF.INFO publishes no seed, so the from-info path
	// must refuse...
	hard, _ := respTarget(t, "blocklist", countingGeometry(service.ModeHardened))
	honestWorkload(t, hard, victim)
	if _, err := attack.NewRemoteDeletionFromInfo(hard, urlgen.New(11)); err == nil {
		t.Fatal("hardened target let the adversary reconstruct its family from BF.INFO")
	}
	// ...and the identical campaign driven with a guessed dablooms-style
	// family hits a refusal wall: every CF.DEL answers :0, the victim stays.
	guess, err := hashes.NewDoubleHashing(4, 3200, 7)
	if err != nil {
		t.Fatal(err)
	}
	hardRep, err := attack.NewRemoteDeletion(hard, guess, urlgen.New(11)).Evict(victim, 100000, 12)
	if err != nil {
		t.Fatalf("campaign against hardened target: %v", err)
	}
	if hardRep.Evicted {
		t.Errorf("hardened target evicted the victim: %+v", hardRep)
	}
	if hardRep.Refused == 0 || hardRep.Accepted != 0 {
		t.Errorf("hardened target must refuse 100%% of crafted removals: %+v", hardRep)
	}
	if countPresent(t, hard, [][]byte{victim}) != 1 {
		t.Error("victim lost on the hardened target")
	}
	t.Logf("hardened: %d rounds, %d refused, %d accepted, victim present",
		hardRep.Rounds, hardRep.Refused, hardRep.Accepted)
}

// The RESP plane is binary-safe, so the constant-time forger's raw 16-byte
// suffixes travel as they are: from BF.INFO alone the adversary aims every
// item of a pipelined BF.MADD at one shard of a naive store and at positions
// of her choosing, and takes that shard to fill ½ with the insertions that
// would bring the whole store to ½ / shards.
func TestForgedItemsChooseShardAndIndexesOverRESP(t *testing.T) {
	const shards, victim, n = 8, 5, 400
	addr, reg, _ := startRESP(t, "web", service.Config{Shards: shards, ShardBits: 3200, HashCount: 4, Seed: 42})
	forger, info := forgerFromInfo(t, dialRESP(t, addr, "web"))
	if info.Shards != shards {
		t.Fatalf("BF.INFO: shards %d", info.Shards)
	}
	items := make([][]byte, n)
	for i := range items {
		// Stride 1 from bases k apart: k fresh bits an item.
		var err error
		if items[i], err = forger.ItemInShard(victim, shards, uint64(i)*uint64(info.K), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	cli, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for lo := 0; lo < n; lo += 100 {
		cli.SendItems("BF.MADD", "web", items[lo:lo+100])
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	for cli.Pending() > 0 {
		reply, err := cli.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if err := reply.Err(); err != nil {
			t.Fatal(err)
		}
		for _, e := range reply.Elems {
			if e.Int != 1 {
				t.Fatalf("a forged item was not new to the filter: %v", e.Format())
			}
		}
	}
	f, err := reg.Get("web")
	if err != nil {
		t.Fatal(err)
	}
	st := f.Store().Stats()
	for _, sh := range st.PerShard {
		wantCount, wantWeight := uint64(0), uint64(0)
		if sh.Shard == victim {
			wantCount, wantWeight = n, uint64(n*info.K)
		}
		if sh.Count != wantCount || sh.Weight != wantWeight {
			t.Errorf("shard %d: count %d weight %d, want %d, %d", sh.Shard, sh.Count, sh.Weight, wantCount, wantWeight)
		}
	}
	if fill := st.PerShard[victim].Fill; fill != 0.5 || st.Fill != fill/shards {
		t.Errorf("victim shard fill %v, store fill %v; want 0.5 and 0.5/%d", fill, st.Fill, shards)
	}
}

// twinTargets serves two identically configured filters, one over HTTP and
// one over RESP, and adapts both to attack.Target.
func twinTargets(t *testing.T, cfg service.Config) (httpT, respT attack.Target) {
	t.Helper()
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	if _, err := reg.Create("twin", cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewRegistryServer(reg))
	t.Cleanup(ts.Close)
	respT, _ = respTarget(t, "twin", cfg)
	return attack.NewRemoteClient(ts.URL, "twin", nil), respT
}

// One campaign, two transports: the same seeded §4.3 deletion and greedy
// §4.1 pollution, run over HTTP and over RESP against identically configured
// naive filters, end in the same place — the planes are adapters, not
// campaigns of their own.
func TestCampaignsAgreeAcrossPlanes(t *testing.T) {
	victim := []byte("http://honest.example.com/blocked-page")
	httpT, respT := twinTargets(t, countingGeometry(service.ModeNaive))
	type outcome struct {
		rep      attack.EvictReport
		attempts uint64
	}
	evict := func(target attack.Target) outcome {
		honestWorkload(t, target, victim)
		adv, err := attack.NewRemoteDeletionFromInfo(target, urlgen.New(11))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := adv.Evict(victim, 100000, 30)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{*rep, adv.Attempts}
	}
	overHTTP, overRESP := evict(httpT), evict(respT)
	if !overHTTP.rep.Evicted || overHTTP != overRESP {
		t.Errorf("deletion over HTTP %+v, over RESP %+v; want the same eviction", overHTTP, overRESP)
	}

	httpT, respT = twinTargets(t, paperGeometry)
	pollute := func(target attack.Target) *attack.PollutionReport {
		rep, err := (&attack.RemotePollution{Target: target, Traffic: urlgen.New(7), Requests: 200, Batch: 1}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := pollute(httpT), pollute(respT)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("pollution over HTTP: weight %d count %d; over RESP: weight %d count %d; want equal reports",
			a.ServerWeight, a.ServerCount, b.ServerWeight, b.ServerCount)
	}
}
