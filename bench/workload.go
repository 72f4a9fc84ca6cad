package main

import (
	"encoding/hex"
	"fmt"
	"strconv"

	"evilbloom/internal/service"
)

// Generator shape, the same on every workload: a closed loop of conns
// keep-alive connections (one per core of the 2-core box the benchmark was
// sized on), each with depth requests outstanding, itemsPerRequest keys per
// request.
const (
	conns           = 2
	depth           = 4
	itemsPerRequest = 64
)

// Every key the server would otherwise draw at random is a constant, so the
// filter's state is a function of the workload and the seed alone.
const (
	routeKeyHex = "000102030405060708090a0b0c0d0e0f"
	indexKeyHex = "f0e1d2c3b4a5968778695a4b3c2d1e0f"
	murmurSeed  = 3
)

// absentUniverse is how many never-inserted keys timed reads draw from.
const absentUniverse = 1 << 32

type workload struct {
	name string
	why  string
	// plane is the wire protocol of the timed phase: "resp" or "http".
	plane string
	// filter is the name of the filter under test on the server.
	filter string
	// cfg is the geometry and keying of the filter under test; the server
	// flags are derived from it, and the traced ladder builds the same
	// filter in process.
	cfg service.Config
	// preload is the size of the always-present universe, inserted during
	// set-up.
	preload uint64
	// churn is the size of the universe that BF.MADD requests insert during
	// the timed phase; 0 makes the workload read-only. One request in four
	// is an add when it is set.
	churn uint64
	// upload seeds the filter by uploading a snapshot envelope built in the
	// harness instead of inserting the preload over the wire.
	upload bool
	// durable runs the server on a data directory and restarts it during
	// set-up and after the final probe.
	durable bool
	// probe is the size of the final false-positive probe.
	probe uint64
	// refClientCPU is the generator's own CPU time per thousand keys of the
	// timed phase, in µs, on the host the benchmark was calibrated on. A
	// run's end-to-end times are scaled by its ratio to what the run itself
	// measured, which takes the host's speed out of them.
	refClientCPU float64
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func smallConfig() service.Config {
	return service.Config{
		Shards: 8, Capacity: 800_000, TargetFPR: 0.01,
		Mode: service.ModeNaive, Seed: murmurSeed, RouteKey: mustHex(routeKeyHex),
	}
}

var workloads = []workload{
	{
		name:  "resp-read-small",
		why:   "BF.MEXISTS on a 0.95 MiB filter that fits L2: no JSON, no WAL, probes hit cache, so RESP decode, engine dispatch and hashing set the number",
		plane: "resp", filter: "default", cfg: smallConfig(),
		preload: 800_000, probe: 2_000_000, refClientCPU: 280,
	},
	{
		name:  "http-read-small",
		why:   "the same filter, keys and request stream through POST test-batch: only the codec differs from resp-read-small, so it prices the HTTP plane",
		plane: "http", filter: "default", cfg: smallConfig(),
		preload: 800_000, probe: 2_000_000, refClientCPU: 525,
	},
	{
		name:  "resp-read-large",
		why:   "BF.MEXISTS on a 55 MiB filter, far beyond L2, restored from an uploaded snapshot: every present key costs k cache misses, so probe layout shows here and not on the small filter",
		plane: "resp", filter: "bench",
		cfg: service.Config{
			Shards: 8, Capacity: 48_000_000, TargetFPR: 0.01,
			Mode: service.ModeNaive, Seed: murmurSeed, RouteKey: mustHex(routeKeyHex),
		},
		preload: 1_000_000, upload: true, probe: 2_000_000, refClientCPU: 295,
	},
	{
		name:  "resp-churn-durable",
		why:   "hardened keyed hashing with a WAL under 1/4 BF.MADD, 3/4 BF.MEXISTS: write locks, journal append and SipHash indexes, the paper's recommended deployment under writes",
		plane: "resp", filter: "default",
		cfg: service.Config{
			Shards: 8, Capacity: 1_600_000, TargetFPR: 0.01,
			Mode: service.ModeHardened, Key: mustHex(indexKeyHex), RouteKey: mustHex(routeKeyHex),
		},
		preload: 800_000, churn: 800_000, durable: true, probe: 2_000_000, refClientCPU: 315,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload to a plumbing check: same code paths, a fraction
// of the keys. Its numbers mean nothing.
func (w workload) quick() workload {
	w.preload /= 16
	w.churn /= 16
	w.probe /= 16
	w.cfg.Capacity /= 16
	return w
}

// serverArgs returns the flags of the child server, apart from its listen
// addresses. On the upload workload the filter under test arrives as a
// snapshot, so the flag-configured default filter stays small.
func (w workload) serverArgs(dataDir string) []string {
	cfg := w.cfg
	if w.upload {
		cfg = smallConfig()
	}
	args := []string{
		"-shards", strconv.Itoa(cfg.Shards),
		"-capacity", strconv.FormatUint(cfg.Capacity, 10),
		"-fpr", strconv.FormatFloat(cfg.TargetFPR, 'g', -1, 64),
		"-route-key", hex.EncodeToString(cfg.RouteKey),
	}
	if cfg.Mode == service.ModeHardened {
		args = append(args, "-mode", "hardened", "-key", hex.EncodeToString(cfg.Key))
	} else {
		args = append(args, "-mode", "naive", "-seed", strconv.FormatUint(cfg.Seed, 10))
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "interval")
	}
	return args
}

// A source yields one connection's request list. next fills kb with the keys
// of the next request and appends to want, per key, whether the filter must
// report the key present (on a read) — anything else is a false negative.
// ok is false once the list is exhausted.
type source interface {
	next(kb *keyBatch, want []bool) (add bool, wantOut []bool, ok bool)
}

// timedSource is the request list of the timed phase for one connection: a
// pure function of (workload, seed, connection), so every run at one seed
// sends the same requests in the same order — how far down the list it gets
// is what is measured — and the traced ladder can replay them.
type timedSource struct {
	w     workload
	seed  uint64
	conn  uint64
	limit uint64 // the list ends after this many requests
	r     uint64 // requests yielded so far
	adds  uint64 // churn keys this connection has sent so far
}

// unbounded is the limit of a list that only a deadline ends.
const unbounded = ^uint64(0)

func newTimedSource(w workload, seed uint64, conn int, limit uint64) *timedSource {
	return &timedSource{w: w, seed: seed, conn: uint64(conn), limit: limit}
}

func (s *timedSource) next(kb *keyBatch, want []bool) (bool, []bool, bool) {
	if s.r >= s.limit {
		return false, want, false
	}
	// A splitmix64 sequence keyed by (seed, connection, request).
	state := mix64(s.seed ^ mix64(s.conn<<40|s.r))
	s.r++
	rnd := func() uint64 {
		state += 0x9e3779b97f4a7c15
		return mix64(state)
	}
	kb.reset()
	// Each connection inserts its own residue class of the churn universe,
	// in order and cyclically: after the run the set of inserted keys is
	// fixed, and a connection knows which churn keys it has already sent.
	perConn := s.w.churn / conns
	if perConn > 0 && rnd()%4 == 0 {
		for i := 0; i < itemsPerRequest; i++ {
			kb.add(s.seed, uniChurn, s.adds%perConn*conns+s.conn)
			s.adds++
		}
		return true, want, true
	}
	for i := 0; i < itemsPerRequest; i++ {
		v := rnd()
		switch {
		case v&1 == 0:
			// Never inserted: the verdict is the filter's to give.
			kb.add(s.seed, uniAbsent, v>>2%absentUniverse)
			want = append(want, false)
		case v&2 != 0 && s.adds > 0:
			// A churn key this connection sent earlier on this stream; the
			// server answers a connection in order, so it must be present.
			kb.add(s.seed, uniChurn, v>>2%min(s.adds, perConn)*conns+s.conn)
			want = append(want, true)
		default:
			kb.add(s.seed, uniPreload, v>>2%s.w.preload)
			want = append(want, true)
		}
	}
	return false, want, true
}

// rangeSource walks keys [from, to) of one universe in requests of batch
// keys: set-up inserts (add) or verifies (present) the preload with it, and
// the final probe reads the never-inserted probe universe with it.
type rangeSource struct {
	seed     uint64
	uni      byte
	from, to uint64
	batch    uint64
	add      bool
	present  bool
}

func (s *rangeSource) next(kb *keyBatch, want []bool) (bool, []bool, bool) {
	if s.from >= s.to {
		return false, want, false
	}
	kb.reset()
	end := min(s.from+s.batch, s.to)
	for ; s.from < end; s.from++ {
		kb.add(s.seed, s.uni, s.from)
		if !s.add {
			want = append(want, s.present)
		}
	}
	return s.add, want, true
}

// split cuts [0, n) into one contiguous range per connection.
func split(n uint64, conn int) (from, to uint64) {
	return n * uint64(conn) / conns, n * uint64(conn+1) / conns
}
