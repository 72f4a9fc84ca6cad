package main

// The traced ladder: the workload's own request stream replayed in process
// at each layer of the server, from a loopback socket down to the bit array,
// every call into a layer's public functions wrapped in a span. The layers
// are timed from outside — nothing in the product is instrumented — and a
// layer's self time is its span minus the spans of the layer below for the
// same request. End-to-end numbers never come from here.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"evilbloom/internal/core"
	"evilbloom/internal/engine"
	"evilbloom/internal/hashes"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/resp"
	"evilbloom/internal/service"
)

// How many requests the ladder replays; plumbing mode divides them by 20.
const (
	chainRequests = 20_000 // at every rung of the chain, with spans
	sideRequests  = 5_000  // at rungs outside the chain, no spans
	addRequests   = 2_000  // BF.MADD-shaped requests of the add pass
	allocRequests = 260    // requests whose allocations are counted
)

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

type span struct {
	rung       int
	req        int
	start, end int64 // nanoseconds since the ladder began
}

// rung is one layer boundary: call is what gets timed, prep runs untimed
// before it on the same keys.
type rung struct {
	name string
	prep func(add bool, keys [][]byte) error
	call func(add bool, keys [][]byte) error
	// readsOnly skips the stream's add requests: the HTTP plane carries
	// reads only in this benchmark.
	readsOnly bool
}

// pass is one replay of a request list at one rung.
type pass struct {
	dur       []int64 // per request, nanoseconds; 0 where skipped
	readNs    int64
	addNs     int64
	readItems uint64
	addItems  uint64
	wall      time.Duration
}

func (p pass) testNsPerItem() float64 { return float64(p.readNs) / float64(max(p.readItems, 1)) }
func (p pass) addNsPerItem() float64  { return float64(p.addNs) / float64(max(p.addItems, 1)) }
func (p pass) nsPerItem() float64 {
	return float64(p.readNs+p.addNs) / float64(max(p.readItems+p.addItems, 1))
}

type tracer struct {
	base  time.Time
	rungs []string
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// replayer drives one request list through one rung, a block at a time, so
// that several rungs can take turns over the same stretch of wall time.
type replayer struct {
	t     *tracer
	r     rung
	src   source
	timed bool // time every call; otherwise only the wall time of the blocks
	id    int  // index into t.rungs when every call is also a span, else -1
	req   int
	kb    keyBatch
	want  []bool
	pass
}

// replayer prepares to drive the first n requests of src through r. With
// spans set every call becomes a span.
func (t *tracer) replayer(r rung, src source, n int, timed, spans bool) *replayer {
	rp := &replayer{t: t, r: r, src: src, timed: timed, id: -1, pass: pass{dur: make([]int64, n)}}
	if spans {
		rp.id = len(t.rungs)
		t.rungs = append(t.rungs, r.name)
	}
	return rp
}

// advance replays the next n requests of the list.
func (rp *replayer) advance(n int) error {
	begin := time.Now()
	for end := rp.req + n; rp.req < end; rp.req++ {
		add, want, ok := rp.src.next(&rp.kb, rp.want[:0])
		if !ok {
			break
		}
		rp.want = want
		if add && rp.r.readsOnly {
			continue
		}
		keys := rp.kb.slices()
		if rp.r.prep != nil {
			if err := rp.r.prep(add, keys); err != nil {
				return fmt.Errorf("%s: request %d: %w", rp.r.name, rp.req, err)
			}
		}
		if !rp.timed {
			if err := rp.r.call(add, keys); err != nil {
				return fmt.Errorf("%s: request %d: %w", rp.r.name, rp.req, err)
			}
			continue
		}
		start := rp.t.now()
		err := rp.r.call(add, keys)
		stop := rp.t.now()
		if err != nil {
			return fmt.Errorf("%s: request %d: %w", rp.r.name, rp.req, err)
		}
		rp.dur[rp.req] = stop - start
		if add {
			rp.addNs += stop - start
			rp.addItems += uint64(len(keys))
		} else {
			rp.readNs += stop - start
			rp.readItems += uint64(len(keys))
		}
		if rp.id >= 0 {
			rp.t.spans = append(rp.t.spans, span{rp.id, rp.req, start, stop})
		}
	}
	rp.wall += time.Since(begin)
	return nil
}

// replay drives the first n requests of src through r in one go.
func (t *tracer) replay(r rung, src source, n int) (pass, error) {
	rp := t.replayer(r, src, n, true, false)
	err := rp.advance(n)
	return rp.pass, err
}

// allocsPerItem counts heap allocations inside r.call alone over the first
// n requests of src, reads only.
func allocsPerItem(r rung, src source, n int) (float64, error) {
	var kb keyBatch
	var want []bool
	var before, after runtime.MemStats
	var mallocs, items uint64
	for req := 0; req < n; req++ {
		add, w, ok := src.next(&kb, want[:0])
		if !ok {
			break
		}
		want = w
		if add {
			continue
		}
		keys := kb.slices()
		if r.prep != nil {
			if err := r.prep(add, keys); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&before)
		err := r.call(add, keys)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, err
		}
		mallocs += after.Mallocs - before.Mallocs
		items += uint64(len(keys))
	}
	return float64(mallocs) / float64(max(items, 1)), nil
}

// feed is an io.Reader handing the RESP decoder one pre-encoded request.
type feed struct{ data []byte }

func (f *feed) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, errors.New("feed: decoder read past the request")
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// layers holds the in-process copies of every layer, all at the workload's
// geometry and seeded with the workload's keys.
type layers struct {
	w    workload
	seed uint64

	k      int
	mask   uint64
	route  hashes.SipKey
	fam    hashes.IndexFamily // the workload's own index derivation
	famB   hashes.IndexFamily // the same over a block-rounded shard
	naive  hashes.IndexFamily // both derivations, whatever the workload's
	keyed  hashes.IndexFamily
	blooms []*core.Bloom
	blocks []*core.Blocked

	persistReg *service.Registry // the durable twin, open for the whole ladder
	reg        *service.Registry // holds the filter the upper rungs serve
	store      *service.Sharded
	eng        *engine.Engine
	ref        engine.FilterRef

	// Scratch shared by prep and call of the index-level rungs.
	shardOf  []int
	idx      []uint64
	idxB     []uint64
	one      []uint64
	verdicts []bool
}

func newFamily(cfg service.Config, k int, m uint64) (hashes.IndexFamily, error) {
	if cfg.Mode == service.ModeHardened {
		d, err := hashes.NewDigester(hashes.SipHash24Alg, cfg.Key)
		if err != nil {
			return nil, err
		}
		return hashes.NewRecycling(d, k, m)
	}
	return hashes.NewDoubleHashing(k, m, cfg.Seed)
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// openPersist measures the durable layer by itself: AddBatch of the preload
// on a filter journaling under fsync=interval, the journal bytes that costs,
// and a restart's replay. It returns the recovered registry.
func (l *layers) openPersist(dir string, out map[string]metric) error {
	reg := service.NewRegistry()
	if _, err := reg.OpenDataDir(dir, service.SyncInterval); err != nil {
		return err
	}
	f, err := reg.Create(l.w.filter, l.w.cfg)
	if err != nil {
		return errors.Join(err, reg.Close())
	}
	before, err := dirSize(dir)
	if err != nil {
		return errors.Join(err, reg.Close())
	}
	src := &rangeSource{seed: l.seed, uni: uniPreload, to: l.w.preload, batch: itemsPerRequest, add: true}
	var kb keyBatch
	var busy time.Duration
	for {
		if _, _, ok := src.next(&kb, nil); !ok {
			break
		}
		keys := kb.slices()
		start := time.Now()
		f.Store().AddBatch(keys)
		busy += time.Since(start)
	}
	if err := reg.Close(); err != nil {
		return err
	}
	after, err := dirSize(dir)
	if err != nil {
		return err
	}
	out["persist.add_ns_per_item"] = metric{float64(busy) / float64(l.w.preload), "ns"}
	out["persist.wal_bytes_per_item"] = metric{float64(after-before) / float64(l.w.preload), "B"}

	start := time.Now()
	l.persistReg = service.NewRegistry()
	if _, err := l.persistReg.OpenDataDir(dir, service.SyncInterval); err != nil {
		return err
	}
	out["persist.recover_s"] = metric{time.Since(start).Seconds(), "s"}
	return nil
}

// compactPersist compacts the durable twin once, timed.
func (l *layers) compactPersist(out map[string]metric) error {
	f, err := l.persistReg.Get(l.w.filter)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := f.Compact(); err != nil {
		return err
	}
	out["persist.compact_s"] = metric{time.Since(start).Seconds(), "s"}
	return nil
}

// build seeds every layer. The durable workload serves its upper rungs from
// the recovered durable filter, as its server does; the others from memory.
func (l *layers) build() error {
	w := l.w
	if w.durable {
		l.reg = l.persistReg
	} else {
		l.reg = service.NewRegistry()
		if w.upload {
			env, err := buildEnvelope(w, l.seed)
			if err != nil {
				return err
			}
			if _, err := l.reg.CreateFromSnapshot(w.filter, bytes.NewReader(env)); err != nil {
				return err
			}
		} else {
			f, err := l.reg.Create(w.filter, w.cfg)
			if err != nil {
				return err
			}
			seedStore(f.Store(), w, l.seed)
		}
	}
	f, err := l.reg.Get(w.filter)
	if err != nil {
		return err
	}
	l.store = f.Store()
	l.eng = engine.New(l.reg)
	if l.ref, err = l.eng.Lookup(w.filter); err != nil {
		return err
	}

	// The lower rungs rebuild what Sharded is made of, out of the same
	// public parts: a keyed route to a shard, an index family, a filter.
	l.k = l.store.K()
	l.mask = uint64(l.store.Shards() - 1)
	var rk [16]byte
	copy(rk[:], w.cfg.RouteKey)
	l.route = hashes.SipKeyFromBytes(rk)
	m := l.store.ShardBits()
	mB := (m + core.BlockBits - 1) / core.BlockBits * core.BlockBits
	if l.fam, err = newFamily(w.cfg, l.k, m); err != nil {
		return err
	}
	if l.famB, err = newFamily(w.cfg, l.k, mB); err != nil {
		return err
	}
	if l.naive, err = newFamily(service.Config{Mode: service.ModeNaive, Seed: murmurSeed}, l.k, m); err != nil {
		return err
	}
	if l.keyed, err = newFamily(service.Config{Mode: service.ModeHardened, Key: mustHex(indexKeyHex)}, l.k, m); err != nil {
		return err
	}
	for s := 0; s < l.store.Shards(); s++ {
		l.blooms = append(l.blooms, core.NewBloom(l.fam))
		b, err := core.NewBlocked(l.famB)
		if err != nil {
			return err
		}
		l.blocks = append(l.blocks, b)
	}
	src := &rangeSource{seed: l.seed, uni: uniPreload, to: w.preload, batch: 4096, add: true}
	var kb keyBatch
	for {
		if _, _, ok := src.next(&kb, nil); !ok {
			break
		}
		keys := kb.slices()
		if err := l.derive(false, keys); err != nil {
			return err
		}
		for j := range keys {
			l.blooms[l.shardOf[j]].AddIndexesAtomic(l.idx[j*l.k : (j+1)*l.k])
			l.blocks[l.shardOf[j]].AddIndexesAtomic(l.idxB[j*l.k : (j+1)*l.k])
		}
	}
	if w.upload {
		// The same synthetic fill the uploaded snapshot carries. A blocked
		// filter offers no way in for raw words and needs none: all of a
		// key's probes share one cache line whatever the fill.
		state := mix64(l.seed ^ 0xf111)
		for _, b := range l.blooms {
			bits := b.Bits()
			for i := 0; i < bits.Words()-1; i++ {
				state += 0x9e3779b97f4a7c15
				bits.SetWord(i, bits.Word(i)|mix64(state))
			}
		}
	}
	return nil
}

// derive routes every key and derives its indexes, as Sharded does before
// it touches a shard.
func (l *layers) derive(_ bool, keys [][]byte) error {
	l.shardOf, l.idx, l.idxB = l.shardOf[:0], l.idx[:0], l.idxB[:0]
	for _, key := range keys {
		l.shardOf = append(l.shardOf, int(hashes.SipHash24(l.route, key)&l.mask))
		l.idx = l.fam.Indexes(l.idx, key)
		l.idxB = l.famB.Indexes(l.idxB, key)
	}
	return nil
}

func (l *layers) rungs() map[string]rung {
	k := l.k
	filterIdx := func(name string, test func(shard int, idx []uint64) bool, add func(shard int, idx []uint64), blocked bool) rung {
		return rung{name: name, prep: l.derive, call: func(isAdd bool, keys [][]byte) error {
			all := l.idx
			if blocked {
				all = l.idxB
			}
			for j := range keys {
				idx := all[j*k : (j+1)*k]
				if isAdd {
					add(l.shardOf[j], idx)
				} else if test(l.shardOf[j], idx) {
					sink++
				}
			}
			return nil
		}}
	}
	indexOnly := func(name string, fam hashes.IndexFamily) rung {
		return rung{name: name, call: func(_ bool, keys [][]byte) error {
			for _, key := range keys {
				l.one = fam.Indexes(l.one[:0], key)
				sink ^= l.one[0]
			}
			return nil
		}}
	}
	principal := engine.AnonymousFromRemoteAddr("127.0.0.1:1")

	var decodeFeed feed
	decoder := resp.NewReader(&decodeFeed)
	var decoded resp.Command
	var encoded []byte
	handler := httpapi.NewEngineServer(l.eng)
	var httpReq *http.Request
	var httpRec *httptest.ResponseRecorder
	path := "/v2/filters/" + l.w.filter + "/test-batch"

	list := []rung{
		{name: "hashes", call: func(_ bool, keys [][]byte) error {
			for _, key := range keys {
				sink ^= hashes.SipHash24(l.route, key)
				l.one = l.fam.Indexes(l.one[:0], key)
				sink ^= l.one[0]
			}
			return nil
		}},
		{name: "hashes.route", call: func(_ bool, keys [][]byte) error {
			for _, key := range keys {
				sink ^= hashes.SipHash24(l.route, key)
			}
			return nil
		}},
		indexOnly("hashes.naive_index", l.naive),
		indexOnly("hashes.hardened_index", l.keyed),
		filterIdx("bitset",
			func(s int, idx []uint64) bool {
				bits := l.blooms[s].Bits()
				for _, i := range idx {
					if !bits.TestAtomic(i) {
						return false
					}
				}
				return true
			},
			func(s int, idx []uint64) {
				bits := l.blooms[s].Bits()
				for _, i := range idx {
					bits.SetAtomic(i)
				}
			}, false),
		filterIdx("core.bloom",
			func(s int, idx []uint64) bool { return l.blooms[s].TestIndexesAtomic(idx) },
			func(s int, idx []uint64) { l.blooms[s].AddIndexesAtomic(idx) }, false),
		filterIdx("core.blocked",
			func(s int, idx []uint64) bool { return l.blocks[s].TestIndexesAtomic(idx) },
			func(s int, idx []uint64) { l.blocks[s].AddIndexesAtomic(idx) }, true),
		{name: "service", call: func(add bool, keys [][]byte) error {
			if add {
				l.store.AddBatch(keys)
			} else {
				l.verdicts = l.store.TestBatch(l.verdicts[:0], keys)
			}
			return nil
		}},
		{name: "engine", call: func(add bool, keys [][]byte) error {
			var err error
			if add {
				_, err = l.eng.AddBatch(principal, l.ref, keys)
			} else {
				l.verdicts, err = l.eng.TestBatch(l.ref, l.verdicts[:0], keys)
			}
			return err
		}},
		{name: "resp.decode",
			prep: func(add bool, keys [][]byte) error {
				cmd := "BF.MEXISTS"
				if add {
					cmd = "BF.MADD"
				}
				encoded = appendRESPCommand(encoded[:0], cmd, l.w.filter, keys)
				decodeFeed.data = encoded
				return nil
			},
			call: func(_ bool, keys [][]byte) error {
				if err := decoder.ReadCommand(&decoded); err != nil {
					return err
				}
				if len(decoded.Args) != 2+len(keys) {
					return fmt.Errorf("decoded %d arguments of %d", len(decoded.Args), 2+len(keys))
				}
				return nil
			}},
		{name: "httpapi.handler", readsOnly: true,
			prep: func(_ bool, keys [][]byte) error {
				encoded = appendJSONItems(encoded[:0], keys)
				httpReq = httptest.NewRequest("POST", path, bytes.NewReader(encoded))
				httpReq.Header.Set("Content-Type", "application/json")
				httpRec = httptest.NewRecorder()
				return nil
			},
			call: func(_ bool, _ [][]byte) error {
				handler.ServeHTTP(httpRec, httpReq)
				if httpRec.Code != http.StatusOK {
					return fmt.Errorf("handler answered %d: %s", httpRec.Code, truncate(httpRec.Body.Bytes()))
				}
				return nil
			}},
	}
	byName := make(map[string]rung, len(list))
	for _, r := range list {
		byName[r.name] = r
	}
	return byName
}

// loopbackRung serves the engine on a 127.0.0.1 listener through one codec
// and returns the rung that makes one synchronous round trip per request
// with the generator's own client, plus what shuts the server down.
func (l *layers) loopbackRung(http1 bool) (rung, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rung{}, nil, err
	}
	served := make(chan error, 1)
	var shutdown func() error
	name := "resp.loopback"
	if http1 {
		name = "httpapi.loopback"
		srv := &http.Server{Handler: httpapi.NewEngineServer(l.eng)}
		go func() { served <- srv.Serve(ln) }()
		shutdown = func() error {
			err := srv.Close()
			if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
				err = errors.Join(err, serr)
			}
			return err
		}
	} else {
		srv := resp.NewEngineServer(l.eng)
		go func() { served <- srv.Serve(ln) }()
		shutdown = func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err := srv.Shutdown(ctx)
			if serr := <-served; !errors.Is(serr, resp.ErrServerClosed) {
				err = errors.Join(err, serr)
			}
			return err
		}
	}
	c, err := dial(ln.Addr().String(), http1, l.w.filter)
	if err != nil {
		return rung{}, nil, errors.Join(err, shutdown())
	}
	stop := func() error {
		c.close()
		return shutdown()
	}
	return rung{name: name, readsOnly: http1, call: func(add bool, keys [][]byte) error {
		if err := c.send(add, keys); err != nil {
			return err
		}
		var err error
		l.verdicts, err = c.recv(len(keys), l.verdicts[:0])
		return err
	}}, stop, nil
}

// ladder runs the traced ladder for cfg's workload, writes the spans to
// spanPath and adds the per-layer metrics to out.
func ladder(cfg runConfig, spanPath string, out map[string]metric) (err error) {
	w := cfg.w
	l := &layers{w: w, seed: cfg.seed}
	var cleanup []func() error
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			err = errors.Join(err, cleanup[i]())
		}
	}()
	dir, err := os.MkdirTemp(cfg.outDir, "ladder-data-")
	if err != nil {
		return err
	}
	cleanup = append(cleanup, func() error { return os.RemoveAll(dir) })
	if err := l.openPersist(dir, out); err != nil {
		return err
	}
	cleanup = append(cleanup, l.persistReg.Close)
	if err := l.build(); err != nil {
		return err
	}
	rungs := l.rungs()
	for _, http1 := range []bool{false, true} {
		r, stop, err := l.loopbackRung(http1)
		if err != nil {
			return err
		}
		cleanup = append(cleanup, stop)
		rungs[r.name] = r
	}

	// The chain, top to bottom, on the workload's own plane.
	top, codec := "resp.loopback", "resp.decode"
	if w.plane == "http" {
		top, codec = "httpapi.loopback", "httpapi.handler"
	}
	chain := []string{top, codec, "engine", "service", "hashes", "core.bloom"}
	parents := map[string]string{codec: top, "engine": codec, "service": "engine", "hashes": "service", "core.bloom": "service"}

	scale := 1
	if cfg.quick {
		scale = 20
	}
	nChain, nSide, nAdd, nAlloc := chainRequests/scale, sideRequests/scale, addRequests/scale, allocRequests/scale
	t := &tracer{base: time.Now(), spans: make([]span, 0, len(chain)*nChain)}
	timedList := func(n int) source { return newTimedSource(w, cfg.seed, 0, uint64(n)) }
	passes := make(map[string]pass)
	allocs := make(map[string]float64)

	// The chain's rungs take turns, a block of requests each, so that a
	// change in the host's speed reaches all of them alike and cancels in
	// the differences between them; a block is long enough that no rung
	// finds its keys still cached from the rung before. The top rung runs
	// twice, once bare: the difference is what tracing costs.
	const block = 500
	bare := t.replayer(rungs[top], timedList(nChain), nChain, false, false)
	turn := []*replayer{bare}
	for _, name := range chain {
		turn = append(turn, t.replayer(rungs[name], timedList(nChain), nChain, true, true))
	}
	for done := 0; done < nChain; done += block {
		for _, rp := range turn {
			if err := rp.advance(block); err != nil {
				return err
			}
		}
	}
	for i, name := range chain {
		passes[name] = turn[1+i].pass
	}
	out["trace.overhead_pct"] = metric{100 * (passes[top].wall - bare.wall).Seconds() / bare.wall.Seconds(), "%"}

	// Rungs outside the chain: the other plane's codec and socket, the
	// hash functions one by one, the bit array and the blocked variant.
	side := []string{"resp.loopback", "resp.decode", "httpapi.loopback", "httpapi.handler",
		"hashes.route", "hashes.naive_index", "hashes.hardened_index", "bitset", "core.blocked"}
	for _, name := range side {
		if _, done := passes[name]; done {
			continue
		}
		if passes[name], err = t.replay(rungs[name], timedList(nSide), nSide); err != nil {
			return err
		}
	}
	for _, name := range []string{"hashes", "service", "engine", "resp.decode", "httpapi.handler"} {
		if allocs[name], err = allocsPerItem(rungs[name], timedList(nAlloc), nAlloc); err != nil {
			return err
		}
	}

	// The add pass: every workload prices an insert at each layer, on keys
	// of the churn universe, after all reads are done. Each rung gets keys
	// no rung before it has inserted; re-adding a present key is cheaper.
	adds := make(map[string]pass)
	for i, name := range []string{"bitset", "core.bloom", "core.blocked", "service", "engine"} {
		n := uint64(nAdd) * itemsPerRequest
		src := &rangeSource{seed: cfg.seed, uni: uniChurn, from: uint64(i) * n, to: uint64(i+1) * n, batch: itemsPerRequest, add: true}
		if adds[name], err = t.replay(rungs[name], src, nAdd); err != nil {
			return err
		}
	}
	if err := l.compactPersist(out); err != nil {
		return err
	}

	ns := func(v float64) metric { return metric{v, "ns"} }
	count := func(v float64) metric { return metric{v, "count"} }
	out["hashes.route_ns_per_item"] = ns(passes["hashes.route"].nsPerItem())
	out["hashes.naive_index_ns_per_item"] = ns(passes["hashes.naive_index"].nsPerItem())
	out["hashes.hardened_index_ns_per_item"] = ns(passes["hashes.hardened_index"].nsPerItem())
	out["hashes.allocs_per_item"] = count(allocs["hashes"])
	out["bitset.test_ns_per_item"] = ns(passes["bitset"].testNsPerItem())
	out["bitset.set_ns_per_item"] = ns(adds["bitset"].addNsPerItem())
	out["core.bloom_test_ns_per_item"] = ns(passes["core.bloom"].testNsPerItem())
	out["core.bloom_add_ns_per_item"] = ns(adds["core.bloom"].addNsPerItem())
	out["core.blocked_test_ns_per_item"] = ns(passes["core.blocked"].testNsPerItem())
	out["core.blocked_add_ns_per_item"] = ns(adds["core.blocked"].addNsPerItem())
	out["service.test_ns_per_item"] = ns(passes["service"].testNsPerItem())
	out["service.add_ns_per_item"] = ns(adds["service"].addNsPerItem())
	out["service.allocs_per_item"] = count(allocs["service"])
	out["engine.test_ns_per_item"] = ns(passes["engine"].testNsPerItem())
	out["engine.add_ns_per_item"] = ns(adds["engine"].addNsPerItem())
	out["engine.allocs_per_item"] = count(allocs["engine"])
	out["resp.decode_ns_per_item"] = ns(passes["resp.decode"].nsPerItem())
	out["resp.decode_allocs_per_item"] = count(allocs["resp.decode"])
	out["resp.loopback_ns_per_item"] = ns(passes["resp.loopback"].nsPerItem())
	out["httpapi.handler_ns_per_item"] = ns(passes["httpapi.handler"].nsPerItem())
	out["httpapi.handler_allocs_per_item"] = count(allocs["httpapi.handler"])
	out["httpapi.loopback_ns_per_item"] = ns(passes["httpapi.loopback"].nsPerItem())

	// Self times: telescoping differences down the chain, request by
	// request. The RESP codec rung decodes only — the engine is not inside
	// it — so below the socket sits decode plus engine, and reply encoding
	// stays in the socket's share; the HTTP handler rung contains the engine.
	var socket, codecSelf, engineSelf, serviceSelf, hashesSelf, coreSelf int64
	items := passes[top].readItems + passes[top].addItems
	for req := 0; req < nChain; req++ {
		below := passes[codec].dur[req]
		if w.plane == "resp" {
			below += passes["engine"].dur[req]
		}
		e, s := passes["engine"].dur[req], passes["service"].dur[req]
		h, c := passes["hashes"].dur[req], passes["core.bloom"].dur[req]
		socket += passes[top].dur[req] - below
		codecSelf += below - e
		engineSelf += e - s
		serviceSelf += s - h - c
		hashesSelf += h
		coreSelf += c
	}
	perItem := func(total int64) metric { return ns(float64(total) / float64(max(items, 1))) }
	out["self.socket_ns_per_item"] = perItem(socket)
	out["self.codec_ns_per_item"] = perItem(codecSelf)
	out["self.engine_ns_per_item"] = perItem(engineSelf)
	out["self.service_ns_per_item"] = perItem(serviceSelf)
	out["self.hashes_ns_per_item"] = perItem(hashesSelf)
	out["self.core_ns_per_item"] = perItem(coreSelf)

	return writeSpans(spanPath, w.name, cfg.seed, t, parents)
}

// writeSpans writes every recorded span as one JSON document.
func writeSpans(path, workloadName string, seed uint64, t *tracer, parents map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns since the ladder began\",\"spans\":[", workloadName, seed)
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		name := t.rungs[s.rung]
		fmt.Fprintf(bw, "\n{\"name\":%q,\"parent\":%q,\"request\":%d,\"start\":%d,\"end\":%d}", name, parents[name], s.req, s.start, s.end)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
