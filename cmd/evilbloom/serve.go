package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"evilbloom/internal/core"
	"evilbloom/internal/engine"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/mesh"
	"evilbloom/internal/resp"
	"evilbloom/internal/service"
)

// serveFlags holds the parsed serve flag values; config turns them into the
// default filter's configuration after validating the combination.
type serveFlags struct {
	addr         *string
	respAddr     *string
	variant      *string
	shards       *int
	capacity     *uint64
	fpr          *float64
	mode         *string
	seed         *uint64
	keyHex       *string
	routeKeyHex  *string
	counterWidth *int
	overflow     *string
	dataDir      *string
	fsync        *string
	peers        stringList
	peerTokens   stringList
	authTokens   stringList
	peerRefresh  *time.Duration
	topology     *string
	topo         mesh.Topology // parsed from topology by config
	self         *string
	routeQuorum  *int
	rateMut      *float64
	rateBurst    *float64
	rateClients  *int
	trustProxy   *bool
}

// stringList collects a repeatable string flag (-peer may appear once per
// sibling).
type stringList []string

// String implements flag.Value.
func (l *stringList) String() string { return strings.Join(*l, ",") }

// Set implements flag.Value.
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// newServeFlagSet declares the serve flag set.
func newServeFlagSet() (*flag.FlagSet, *serveFlags) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	v := &serveFlags{
		addr:         fs.String("addr", "127.0.0.1:8379", "listen address"),
		respAddr:     fs.String("resp-addr", "", "additional RESP (redis protocol) listen address, e.g. 127.0.0.1:6390; empty disables the binary plane"),
		variant:      fs.String("variant", "bloom", "default filter backend: bloom, counting (removable) or blocked (cache-line-local)"),
		shards:       fs.Int("shards", 8, "shard count (power of two)"),
		capacity:     fs.Uint64("capacity", 1<<20, "total anticipated insertions"),
		fpr:          fs.Float64("fpr", 1.0/1024, "target false-positive probability"),
		mode:         fs.String("mode", "naive", "index derivation: naive (attackable Murmur) or hardened (keyed SipHash)"),
		seed:         fs.Uint64("seed", 3, "public Murmur seed (naive mode only)"),
		keyHex:       fs.String("key", "", "hex-encoded 16-byte index secret (hardened mode only; random when empty)"),
		routeKeyHex:  fs.String("route-key", "", "hex-encoded 16-byte routing secret (random when empty): folded into a hardened filter's placement key, unused by a naive filter, whose shard is as public as its indexes; filters recovered from a layout-1 data directory keep routing by the key recorded there"),
		counterWidth: fs.Int("counter-width", 4, "counter bits per position (counting variant only)"),
		overflow:     fs.String("overflow", "saturate", "counter overflow policy (counting variant only): saturate pins a full counter; wrap rolls it over to zero, as dablooms does, so an item added 2^counter-width times is erased"),
		dataDir:      fs.String("data-dir", "", "directory for durable filter state (snapshots + operation logs); empty serves from memory only"),
		fsync:        fs.String("fsync", "interval", "operation-log durability: always, interval or never (needs -data-dir)"),
		peerRefresh:  fs.Duration("peer-refresh", mesh.DefaultPeerRefresh, "digest refresh interval for -peer siblings"),
		topology:     fs.String("topology", "", "mesh fetch topology over the -peer roster: pairs (default), ring or hub; ring and hub need -self"),
		self:         fs.String("self", "", "this node's own base URL within the -peer roster (required for -topology ring or hub)"),
		routeQuorum:  fs.Int("route-quorum", 0, "sibling digest claims a route verdict needs before answering \"peer\" (default 1, the first-claiming-peer rule)"),
		rateMut:      fs.Float64("rate-mutations", 0, "per-client mutation budget in items/second across add/remove/digest-push (batches charge per item; 0 serves unthrottled, accounting only)"),
		rateBurst:    fs.Float64("rate-burst", 0, "mutation burst each client may spend at once (needs -rate-mutations; default one second of budget, floor 1)"),
		rateClients:  fs.Int("rate-clients-max", engine.DefaultRateClientsMax, "per-filter client accounting-table cap; least-recently-seen identities are evicted beyond it"),
		trustProxy:   fs.Bool("trust-proxy", false, "trust X-Evilbloom-Client, then the rightmost X-Forwarded-For entry, for client identity (only behind a proxy tier that sets or sanitizes them)"),
	}
	fs.Var(&v.peers, "peer", "sibling evilbloomd base URL for cache-digest exchange (repeatable)")
	fs.Var(&v.peerTokens, "peer-token", "name:secret mesh credential (repeatable; the FIRST entry is this node's own): digests travel HMAC-sealed, fetches authenticate, and unauthenticated digest pushes are refused")
	fs.Var(&v.authTokens, "auth-token", "name:secret client credential (repeatable); authenticated clients get a cross-plane rate-limit bucket keyed by name instead of by network address")
	return fs, v
}

// config validates the flag combination up front — contradictory flags are
// an error, not something to silently ignore — and assembles the Config.
func (v *serveFlags) config(fs *flag.FlagSet) (service.Config, error) {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	variant, err := service.ParseVariant(*v.variant)
	if err != nil {
		return service.Config{}, err
	}
	mode, err := service.ParseMode(*v.mode)
	if err != nil {
		return service.Config{}, err
	}

	// Mode-dependent flags: naive mode has no index secret, hardened mode
	// has no public seed. Accepting the contradictory flag would quietly
	// serve something other than what the operator asked for.
	if mode == service.ModeHardened && set["seed"] {
		return service.Config{}, fmt.Errorf("-seed is meaningless with -mode hardened: the keyed family has no public seed (use -key to pin the secret)")
	}
	if mode == service.ModeNaive && set["key"] {
		return service.Config{}, fmt.Errorf("-key is meaningless with -mode naive: the Murmur family is unkeyed (use -seed, or -mode hardened)")
	}

	// Variant-dependent flags: counters exist only on the counting backend.
	if variant != service.VariantCounting {
		var rejected []string
		for _, name := range []string{"counter-width", "overflow"} {
			if set[name] {
				rejected = append(rejected, "-"+name)
			}
		}
		if len(rejected) > 0 {
			return service.Config{}, fmt.Errorf("%s need(s) -variant counting; a %v filter has no counters", strings.Join(rejected, ", "), variant)
		}
	}

	// Durability-dependent flags: the fsync policy governs the operation
	// log, which exists only under -data-dir.
	if set["fsync"] && *v.dataDir == "" {
		return service.Config{}, fmt.Errorf("-fsync needs -data-dir; without a data directory there is no operation log to sync")
	}
	if _, err := service.ParseSyncPolicy(*v.fsync); err != nil {
		return service.Config{}, err
	}

	// Peer-exchange flags: the refresh interval paces digest fetch loops
	// that exist only when siblings are configured, and the topology shapes
	// the roster those loops poll. (-peer-token and -route-quorum stand
	// alone: a push-only node still verifies pushes and votes with a
	// quorum.)
	if set["peer-refresh"] && len(v.peers) == 0 {
		return service.Config{}, fmt.Errorf("-peer-refresh needs -peer; without siblings there is no digest exchange to pace")
	}
	if *v.peerRefresh <= 0 {
		return service.Config{}, fmt.Errorf("-peer-refresh must be positive, got %v", *v.peerRefresh)
	}
	if set["topology"] && len(v.peers) == 0 {
		return service.Config{}, fmt.Errorf("-topology needs -peer; without a roster there are no fetch edges to shape")
	}
	if set["self"] && len(v.peers) == 0 {
		return service.Config{}, fmt.Errorf("-self needs -peer; it names this node's entry in the roster")
	}
	if v.topo, err = mesh.ParseTopology(*v.topology); err != nil {
		return service.Config{}, err
	}
	if (v.topo == mesh.TopologyRing || v.topo == mesh.TopologyHub) && *v.self == "" {
		return service.Config{}, fmt.Errorf("-topology %s needs -self: roster order decides the fetch edges, so the node must know which entry is its own", v.topo)
	}
	if set["route-quorum"] && *v.routeQuorum < 1 {
		return service.Config{}, fmt.Errorf("-route-quorum must be at least 1, got %d", *v.routeQuorum)
	}

	// Rate-limit flags: the burst spends from a budget, so it needs one.
	// (-rate-clients-max and -trust-proxy stand alone: they also govern the
	// always-on accounting table.)
	if set["rate-mutations"] && *v.rateMut <= 0 {
		return service.Config{}, fmt.Errorf("-rate-mutations must be positive, got %v (omit the flag to serve unthrottled)", *v.rateMut)
	}
	if set["rate-burst"] && !set["rate-mutations"] {
		return service.Config{}, fmt.Errorf("-rate-burst needs -rate-mutations; a burst alone is no budget")
	}
	if set["rate-burst"] && *v.rateBurst <= 0 {
		return service.Config{}, fmt.Errorf("-rate-burst must be positive, got %v", *v.rateBurst)
	}
	if *v.rateClients < 1 {
		return service.Config{}, fmt.Errorf("-rate-clients-max must be at least 1, got %d", *v.rateClients)
	}

	cfg := service.Config{
		Variant:   variant,
		Shards:    *v.shards,
		Capacity:  *v.capacity,
		TargetFPR: *v.fpr,
		Mode:      mode,
		Seed:      *v.seed,
	}
	if variant == service.VariantCounting {
		cfg.CounterWidth = *v.counterWidth
		if cfg.Overflow, err = core.ParseOverflowPolicy(*v.overflow); err != nil {
			return service.Config{}, err
		}
	}
	if cfg.Key, err = parseKeyFlag(*v.keyHex); err != nil {
		return service.Config{}, fmt.Errorf("-key: %w", err)
	}
	if cfg.RouteKey, err = parseKeyFlag(*v.routeKeyHex); err != nil {
		return service.Config{}, fmt.Errorf("-route-key: %w", err)
	}
	return cfg, nil
}

// meshConfig assembles the mesh configuration from flags config has
// validated.
func (v *serveFlags) meshConfig() mesh.PeerConfig {
	return mesh.PeerConfig{
		Peers:       v.peers,
		Topology:    v.topo,
		Self:        *v.self,
		RouteQuorum: *v.routeQuorum,
		Refresh:     *v.peerRefresh,
		Tokens:      v.peerTokens,
	}
}

// cmdServe runs the multi-filter service (evilbloomd): a registry of named
// filters behind the /v2 API, with the flag-configured filter installed as
// "default" — the paper's §8 naive-vs-hardened
// comparison and the §4.3 deletion scenario as live HTTP endpoints the
// attack machinery can be pointed at. With -data-dir every filter journals
// its mutations and the whole registry survives a restart bit-identically;
// SIGINT/SIGTERM trigger a graceful drain-and-flush shutdown.
func cmdServe(args []string) error {
	fs, values := newServeFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := values.config(fs)
	if err != nil {
		return err
	}
	meshCfg := values.meshConfig()
	// One command engine fronts both wire planes: HTTP and RESP are codecs
	// over the same validation, identity, rate-limit, and dispatch pipeline,
	// so a command costs the same no matter which protocol carries it. Its
	// budgets and mesh are configured before any filter exists, so every
	// filter — flag default, recovered, or created over the wire — is
	// accounted and exchanges digests from its first moment.
	reg := service.NewRegistry()
	eng := engine.New(reg)
	rateCfg := engine.RateLimitConfig{
		MutationsPerSec: *values.rateMut,
		Burst:           *values.rateBurst,
		MaxClients:      *values.rateClients,
		TrustProxy:      *values.trustProxy,
	}
	if err := eng.ConfigureRateLimit(rateCfg); err != nil {
		return err
	}
	if rateCfg.MutationsPerSec > 0 {
		fmt.Fprintf(os.Stderr, "evilbloom serve: per-client mutation budget %.3g/s (burst %.3g, table cap %d) on add/remove/digest-push; exhausted budgets answer 429\n",
			rateCfg.MutationsPerSec, rateCfg.EffectiveBurst(), rateCfg.MaxClients)
	}
	if err := eng.ConfigureMesh(meshCfg); err != nil {
		return err
	}
	if len(meshCfg.Tokens) > 0 {
		selfName, _, _ := strings.Cut(meshCfg.Tokens[0], ":")
		fmt.Fprintf(os.Stderr, "evilbloom serve: mesh roster of %d credential(s); digests sealed as %q, unauthenticated pushes refused\n",
			len(meshCfg.Tokens), selfName)
	}
	quorum := max(meshCfg.RouteQuorum, 1)
	if len(meshCfg.Peers) > 0 {
		fmt.Fprintf(os.Stderr, "evilbloom serve: exchanging cache digests with %d roster member(s) every %v under %s topology (route quorum %d): %s\n",
			len(meshCfg.Peers), meshCfg.Refresh, meshCfg.Topology, quorum, strings.Join(meshCfg.Peers, ", "))
	} else if meshCfg.RouteQuorum > 0 {
		fmt.Fprintf(os.Stderr, "evilbloom serve: route verdicts need %d sibling claim(s)\n", quorum)
	}
	if *values.dataDir != "" {
		policy, err := service.ParseSyncPolicy(*values.fsync)
		if err != nil {
			return err
		}
		n, err := reg.OpenDataDir(*values.dataDir, policy)
		if err != nil {
			return fmt.Errorf("opening data dir %s: %w", *values.dataDir, err)
		}
		fmt.Fprintf(os.Stderr, "evilbloom serve: recovered %d filter(s) from %s (fsync=%s)\n", n, *values.dataDir, policy)
	}
	// The flag-configured default filter: created unless a persisted one
	// was just recovered, in which case the durable state wins and the
	// geometry flags are ignored (delete the filter's directory to rebuild
	// it from flags).
	if f, err := reg.Get(service.DefaultFilterName); err == nil {
		fmt.Fprintf(os.Stderr, "evilbloom serve: default filter restored from data dir (%s %s, count %d); geometry flags ignored\n",
			f.Store().Variant(), f.Store().Mode(), f.Store().Count())
	} else {
		store, err := service.NewSharded(cfg)
		if err != nil {
			return err
		}
		if _, err := reg.Adopt(service.DefaultFilterName, store); err != nil {
			return err
		}
	}
	defaultFilter, err := reg.Get(service.DefaultFilterName)
	if err != nil {
		return err
	}
	store := defaultFilter.Store()
	ln, err := net.Listen("tcp", *values.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "evilbloom serve: %s %s-mode default filter, %d shards × %d positions, k=%d, listening on http://%s\n",
		store.Variant(), store.Mode(), store.Shards(), store.ShardBits(), store.K(), ln.Addr())
	if store.Variant() == service.VariantCounting {
		fmt.Fprintf(os.Stderr, "evilbloom serve: %d-bit %s counters; remove endpoints enabled\n",
			store.CounterWidth(), store.OverflowPolicy())
	}
	if store.Mode() == service.ModeNaive {
		fmt.Fprintf(os.Stderr, "evilbloom serve: naive index seed %d is PUBLIC (served on the info endpoints) — this mode is meant to be attacked\n", store.Seed())
	}
	fmt.Fprintf(os.Stderr, "evilbloom serve: manage named filters via PUT/GET/DELETE /v2/filters/{name}; the flag-configured filter is /v2/filters/default\n")

	if len(values.authTokens) > 0 {
		if err := eng.ConfigureAuth(values.authTokens); err != nil {
			ln.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "evilbloom serve: %d auth token(s) installed; authenticated clients (HTTP Bearer, RESP AUTH) spend per-name budgets shared across planes\n",
			len(values.authTokens))
	}
	srv := newHTTPServer(httpapi.NewEngineServer(eng))

	// The optional RESP plane shares the engine — and therefore the auth
	// table, rate-limit buckets, accounting identities and creation caps —
	// with the HTTP listener. Same filters, same budgets, different wire
	// format.
	var respSrv *resp.Server
	var respLn net.Listener
	if *values.respAddr != "" {
		respLn, err = net.Listen("tcp", *values.respAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("-resp-addr: %w", err)
		}
		respSrv = resp.NewEngineServer(eng)
		_, respPort, _ := net.SplitHostPort(respLn.Addr().String())
		fmt.Fprintf(os.Stderr, "evilbloom serve: RESP plane on %s — try: redis-cli -p %s BF.ADD default item\n",
			respLn.Addr(), respPort)
	}

	// Graceful shutdown: SIGINT/SIGTERM stop accepting, drain in-flight
	// requests (so batches complete and their journal records land), then
	// flush and close every filter's durable store. Killing the process
	// mid-write is what the torn-tail recovery is for; the signal path
	// should never need it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 2)
	go func() { serveErr <- srv.Serve(ln) }()
	if respSrv != nil {
		go func() {
			if err := respSrv.Serve(respLn); !errors.Is(err, resp.ErrServerClosed) {
				serveErr <- err
			}
		}()
	}
	select {
	case err := <-serveErr:
		reg.Close() //nolint:errcheck // the listener error is the headline
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "evilbloom serve: signal received; draining\n")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "evilbloom serve: drain: %v\n", err)
	}
	if respSrv != nil {
		if err := respSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "evilbloom serve: resp drain: %v\n", err)
		}
	}
	gens := map[*service.Filter]uint64{} // a generation Close moves is a compaction
	for _, f := range reg.List() {
		gens[f] = f.Generation()
	}
	if err := reg.Close(); err != nil {
		return fmt.Errorf("flushing durable state: %w", err)
	}
	compacted := 0
	for f, gen := range gens {
		if f.Generation() != gen {
			compacted++
		}
	}
	fmt.Fprintf(os.Stderr, "evilbloom serve: durable state flushed, %d filter(s) compacted; bye\n", compacted)
	return nil
}

// newHTTPServer assembles the serving http.Server with its transport-level
// protections. The filter attacks are the point; transport-level stalls
// (slowloris clients holding goroutines open) are not — on either side of
// the connection: the read timeouts cut slow senders, and WriteTimeout cuts
// slow *readers*, which the old configuration forgot — a client that
// accepted a large snapshot or digest response one byte at a time held its
// goroutine (and the response buffer) forever.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      serveWriteTimeout(),
		IdleTimeout:       2 * time.Minute,
	}
}

// serveWriteTimeout sizes WriteTimeout for the largest response the API can
// produce — a MaxSnapshotBytes snapshot envelope — delivered at a floor
// bandwidth of 4 MiB/s, plus scheduling slack. Slower-but-honest mirrors
// should split their reads or re-fetch; anything below the floor is
// indistinguishable from a slowloris reader.
func serveWriteTimeout() time.Duration {
	const floorBytesPerSec = 4 << 20
	return time.Duration(service.MaxSnapshotBytes/floorBytesPerSec+30) * time.Second
}

// parseKeyFlag decodes an optional hex key flag; empty means "draw random".
func parseKeyFlag(s string) ([]byte, error) {
	if s == "" {
		return nil, nil
	}
	key, err := hex.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(key) != 16 {
		return nil, fmt.Errorf("want 16 bytes, got %d", len(key))
	}
	return key, nil
}
