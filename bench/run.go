package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"evilbloom/bench/stats"
)

// Set-up is repeated and its median reported, because one sub-second
// set-up is at the mercy of a single scheduling hiccup.
const setupRepeats = 5

// setupBatch is the request size of the untimed phases (preload, verify,
// probe), which only need to be quick.
const setupBatch = 512

// verifySample is how many always-present keys set-up reads back.
const verifySample = 1 << 16

// window is the width of the wall-clock buckets timing metrics are reduced
// over: each is the median over full windows of the per-window value.
const window = time.Second

// minTailSamples is what a window must hold for its p99 to have ten samples
// beyond it.
const minTailSamples = 1000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints, in the shape the benchmark contract fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	w         workload
	seed      uint64
	seconds   int
	trace     bool
	quick     bool
	outDir    string // scratch: data directories, span files
	serverBin string
}

// bench is the state of one run against one server.
type bench struct {
	cfg      runConfig
	envelope []byte // upload workloads: the snapshot to seed with
	srv      *server
	dataDir  string
}

func (b *bench) dialAll(http bool) ([]*client, error) {
	addr := b.srv.respAddr
	if http {
		addr = b.srv.httpAddr
	}
	clients := make([]*client, conns)
	for i := range clients {
		c, err := dial(addr, http, b.cfg.w.filter)
		if err != nil {
			closeAll(clients[:i])
			return nil, err
		}
		clients[i] = c
	}
	return clients, nil
}

func closeAll(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

// sweep walks keys [0, over.to) of over's universe on the RESP plane, each
// connection a contiguous share, as over says: inserting, or reading with
// every key expected present or none. keep stores the verdicts.
func (b *bench) sweep(over rangeSource, keep bool) (phase, error) {
	clients, err := b.dialAll(false)
	if err != nil {
		return phase{}, err
	}
	defer closeAll(clients)
	sources := make([]source, conns)
	for c := range sources {
		share := over
		share.seed, share.batch = b.cfg.seed, setupBatch
		share.from, share.to = split(over.to, c)
		sources[c] = &share
	}
	return runPhase(clients, sources, 0, false, keep), nil
}

// mustSucceed turns any failed request of an untimed phase into an error.
func mustSucceed(what string, ph phase) error {
	if t := ph.total(); t.failed > 0 {
		return fmt.Errorf("%s: %d of %d requests failed: %w", what, t.failed, t.requests, t.firstErr)
	}
	return nil
}

// setUp brings up a server holding the seeded filter and returns how long
// that took, from exec to verified and ready.
func (b *bench) setUp() (time.Duration, error) {
	w := b.cfg.w
	if w.durable {
		dir, err := os.MkdirTemp(b.cfg.outDir, "data-")
		if err != nil {
			return 0, err
		}
		b.dataDir = dir
	}
	srv, err := startServer(b.cfg.serverBin, w.serverArgs(b.dataDir))
	if err != nil {
		return 0, err
	}
	b.srv = srv
	begin := srv.started
	if w.upload {
		status, body, err := httpDo(srv.httpAddr, "PUT", "/v2/filters/"+w.filter, "application/octet-stream", b.envelope)
		if err != nil {
			return 0, fmt.Errorf("uploading snapshot: %w", err)
		}
		if status != 201 {
			return 0, fmt.Errorf("uploading snapshot: HTTP %d: %s", status, truncate(body))
		}
	} else {
		ph, err := b.sweep(rangeSource{uni: uniPreload, to: w.preload, add: true}, false)
		if err != nil {
			return 0, err
		}
		if err := mustSucceed("preload", ph); err != nil {
			return 0, err
		}
	}
	if w.durable {
		// The deployment restarts: what the next phase reads is the state
		// the WAL replays to, and replay time is part of set-up.
		if err := b.restart(); err != nil {
			return 0, err
		}
	}
	ph, err := b.sweep(rangeSource{uni: uniPreload, to: min(w.preload, verifySample), present: true}, false)
	if err != nil {
		return 0, err
	}
	if err := mustSucceed("verifying the preload", ph); err != nil {
		return 0, err
	}
	return time.Since(begin), nil
}

func (b *bench) restart() error {
	if err := b.srv.stop(); err != nil {
		return err
	}
	srv, err := startServer(b.cfg.serverBin, b.cfg.w.serverArgs(b.dataDir))
	if err != nil {
		return fmt.Errorf("restarting on %s: %w", b.dataDir, err)
	}
	b.srv = srv
	return nil
}

// tearDown stops the server and removes its data directory.
func (b *bench) tearDown() error {
	var err error
	if b.srv != nil {
		err = b.srv.stop()
		b.srv = nil
	}
	if b.dataDir != "" {
		err = errors.Join(err, os.RemoveAll(b.dataDir))
		b.dataDir = ""
	}
	return err
}

// counts accumulates what a run reports beside its metrics.
type counts struct {
	attempted, failed uint64
	firstErr          error
}

func (c *counts) add(t tally) {
	c.attempted += t.requests
	c.failed += t.failed
	if c.firstErr == nil {
		c.firstErr = t.firstErr
	}
}

// timedPhase is the measured part of a run: each connection works down its
// request list in a closed loop for --seconds, with the server's and the
// generator's counters sampled on either side.
type timedPhase struct {
	phase
	sources       []source
	before, after procSample
	selfCPU       time.Duration
}

func (b *bench) runTimedPhase() (timedPhase, error) {
	w := b.cfg.w
	tp := timedPhase{sources: make([]source, conns)}
	for c := range tp.sources {
		tp.sources[c] = newTimedSource(w, b.cfg.seed, c, unbounded)
	}
	clients, err := b.dialAll(w.plane == "http")
	if err != nil {
		return tp, err
	}
	defer closeAll(clients)
	if tp.before, err = sampleProc(b.srv.pid()); err != nil {
		return tp, err
	}
	selfBefore := selfCPU()
	tp.phase = runPhase(clients, tp.sources, time.Duration(b.cfg.seconds)*time.Second, true, false)
	tp.selfCPU = selfCPU() - selfBefore
	tp.after, err = sampleProc(b.srv.pid())
	return tp, err
}

// checkRestart restarts the durable deployment and holds it to its
// contract: the probe answers exactly as before, and acknowledged adds —
// the preload, and the churn keys every connection got through — are still
// there.
func (b *bench) checkRestart(probe phase, sources []source, c *counts) error {
	w := b.cfg.w
	if err := b.restart(); err != nil {
		return err
	}
	reprobe, err := b.sweep(rangeSource{uni: uniProbe, to: w.probe}, true)
	if err != nil {
		return err
	}
	c.add(reprobe.total())
	for i := range probe.tallies {
		if diff := differingRequests(probe.tallies[i].verdicts, reprobe.tallies[i].verdicts); diff > 0 {
			c.failed += diff
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("%d probe requests answered differently after the restart", diff)
			}
		}
	}
	added := ^uint64(0)
	for _, s := range sources {
		added = min(added, s.(*timedSource).adds)
	}
	for _, chk := range []struct {
		uni byte
		n   uint64
	}{{uniPreload, min(w.preload, verifySample)}, {uniChurn, min(added, w.churn/conns, verifySample/conns) * conns}} {
		ph, err := b.sweep(rangeSource{uni: chk.uni, to: chk.n, present: true}, false)
		if err != nil {
			return err
		}
		c.add(ph.total())
	}
	return nil
}

// run executes one whole run and returns what it prints.
func run(cfg runConfig) (result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	b := &bench{cfg: cfg}
	defer b.tearDown() //nolint:errcheck // the success path checks tearDown itself
	w := cfg.w
	if w.upload {
		var err error
		if b.envelope, err = buildEnvelope(w, cfg.seed); err != nil {
			return result{}, err
		}
	}

	// Set-up, several times over; the last server stays up for the run.
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if err := b.tearDown(); err != nil {
			return result{}, err
		}
		d, err := b.setUp()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	b.envelope = nil

	timed, err := b.runTimedPhase()
	if err != nil {
		return result{}, err
	}
	// Final probe of never-inserted keys: the filter's false-positive rate
	// in the state the timed phase left it in.
	probe, err := b.sweep(rangeSource{uni: uniProbe, to: w.probe}, w.durable)
	if err != nil {
		return result{}, err
	}
	atEnd, err := sampleProc(b.srv.pid())
	if err != nil {
		return result{}, err
	}
	sum, probed := timed.total(), probe.total()
	var c counts
	c.add(sum)
	c.add(probed)
	if w.durable {
		if err := b.checkRestart(probe, timed.sources, &c); err != nil {
			return result{}, err
		}
	}
	if err := b.tearDown(); err != nil {
		return result{}, err
	}
	if c.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: first failure: %v\n", c.firstErr)
	}
	if sum.items == 0 || probed.absent == 0 {
		return result{}, fmt.Errorf("nothing was acknowledged: %w", c.firstErr)
	}

	ws, err := reduceWindows(timed.phase, window, time.Duration(cfg.seconds)*time.Second, !cfg.quick)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: set-ups %.3v s; timed phase %v over %d full windows; %d items\n",
		w.name, cfg.seed, setups, ws.duration.Round(time.Millisecond), ws.windows, sum.items)
	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed}
	before, after := timed.before, timed.after
	kitems := float64(sum.items) / 1000
	kreqs := float64(sum.requests) / 1000
	// The host's speed, as the generator's own code saw it during the timed
	// phase: above 1 on a host faster than the one the workload's reference
	// cost was taken on. The generator runs no code of the product, so its
	// CPU time per key moves with the host and with nothing else; the
	// end-to-end times are stated at the reference speed.
	clientCPU := us(timed.selfCPU) / kitems
	speed := 1.0
	if clientCPU > 0 {
		speed = w.refClientCPU / clientCPU
	}
	if !cfg.trace {
		res.Metrics = map[string]metric{
			"throughput_items_s":      {ws.throughput / speed, "1/s"},
			"lat_p50_us":              {ws.p50 * speed, "us"},
			"server_cpu_us_per_kitem": {us(after.user-before.user+after.sys-before.sys) / kitems * speed, "us"},
			"fp_rate":                 {float64(probed.positives) / float64(probed.absent), "ratio"},
			"peak_rss_mib":            {float64(atEnd.peakRSSKiB) / 1024, "MiB"},
			"setup_s":                 {stats.Median(setups), "s"},
		}
		return res, nil
	}

	stealPct := 0.0
	if host := after.host - before.host; host > 0 {
		stealPct = 100 * float64(after.hostSteal-before.hostSteal) / float64(host)
	}
	res.Metrics = map[string]metric{
		"server.user_cpu_us_per_kitem":     {us(after.user-before.user) / kitems, "us"},
		"server.sys_cpu_us_per_kitem":      {us(after.sys-before.sys) / kitems, "us"},
		"server.read_syscalls_per_kreq":    {float64(after.readCalls-before.readCalls) / kreqs, "count"},
		"server.write_syscalls_per_kreq":   {float64(after.writeCalls-before.writeCalls) / kreqs, "count"},
		"server.ctx_switches_per_kreq":     {float64(after.ctxSwitches-before.ctxSwitches) / kreqs, "count"},
		"server.disk_write_bytes_per_item": {float64(after.diskWriteBytes-before.diskWriteBytes) / float64(sum.items), "B"},
		"client.lat_p90_us":                {ws.p90, "us"},
		"client.lat_p99_us":                {ws.p99, "us"},
		"client.lat_max_us":                {ws.max, "us"},
		"client.cpu_us_per_kitem":          {clientCPU, "us"},
		"client.window_iqr_pct":            {ws.iqrPct, "%"},
		"client.windows":                   {float64(ws.windows), "count"},
		"client.timed_phase_s":             {ws.duration.Seconds(), "s"},
		"host.steal_pct":                   {stealPct, "%"},
		"host.speed_factor":                {speed, "ratio"},
	}
	spanPath := filepath.Join(cfg.outDir, fmt.Sprintf("%s.seed%d.trace.json", w.name, cfg.seed))
	if err := ladder(cfg, spanPath, res.Metrics); err != nil {
		return result{}, fmt.Errorf("traced ladder: %w", err)
	}
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// differingRequests counts the setupBatch-sized requests in which two
// verdict streams disagree.
func differingRequests(a, b []bool) uint64 {
	if len(a) != len(b) {
		return uint64(max(len(a), len(b))+setupBatch-1) / setupBatch
	}
	var diff uint64
	for start := 0; start < len(a); start += setupBatch {
		end := min(start+setupBatch, len(a))
		for i := start; i < end; i++ {
			if a[i] != b[i] {
				diff++
				break
			}
		}
	}
	return diff
}

// windowStats is the timed phase reduced over full wall-clock windows.
type windowStats struct {
	windows       int
	duration      time.Duration // start to the last reply
	throughput    float64       // items/s, median over windows
	p50, p90, p99 float64       // µs, median over windows of the window's quantile
	max           float64       // µs, over the whole phase
	iqrPct        float64       // spread of per-window throughput
}

// reduceWindows buckets every completion into windows of width win counted
// from the phase start and keeps the windows that every connection was
// still sending through: those before the deadline (0 for none) and before
// the first connection ran out of requests. With strict set it refuses a
// phase too short or too thin for its own estimators.
func reduceWindows(ph phase, win, deadline time.Duration, strict bool) (windowStats, error) {
	var ws windowStats
	busyUntil := ph.ends[0]
	if deadline > 0 {
		busyUntil = min(busyUntil, int64(deadline))
	}
	for _, e := range ph.ends {
		busyUntil = min(busyUntil, e)
		ws.duration = max(ws.duration, time.Duration(e))
	}
	ws.windows = int(busyUntil / int64(win))
	if ws.windows < 1 {
		if strict {
			return ws, fmt.Errorf("timed phase lasted %v: not one full %v window", ws.duration, win)
		}
		// Plumbing mode: one window as long as the phase.
		ws.windows, win = 1, time.Duration(busyUntil)
	}
	lats := make([][]float64, ws.windows)
	for _, t := range ph.tallies {
		for i, at := range t.doneAt {
			ws.max = max(ws.max, float64(t.lat[i])/1e3)
			if b := int(at / int64(win)); b < ws.windows {
				lats[b] = append(lats[b], float64(t.lat[i])/1e3)
			}
		}
	}
	var tput, p50, p90, p99 []float64
	for _, l := range lats {
		tput = append(tput, float64(len(l)*itemsPerRequest)/win.Seconds())
		// A window that a stall of the host left thin has no p99 to speak
		// of; it still counts, as a slow one, towards throughput.
		if strict && len(l) < minTailSamples {
			continue
		}
		sort.Float64s(l)
		p50 = append(p50, stats.Quantile(l, 0.50))
		p90 = append(p90, stats.Quantile(l, 0.90))
		p99 = append(p99, stats.Quantile(l, 0.99))
	}
	if 2*len(p99) <= ws.windows {
		return ws, fmt.Errorf("only %d of %d windows hold the %d requests a p99 needs", len(p99), ws.windows, minTailSamples)
	}
	ws.throughput = stats.Median(tput)
	ws.p50, ws.p90, ws.p99 = stats.Median(p50), stats.Median(p90), stats.Median(p99)
	ws.iqrPct = 100 * stats.Spread(tput)
	return ws, nil
}
