package service

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
	"evilbloom/internal/urlgen"
)

// benchItems pre-generates a working set so the generator is off the
// measured path.
func benchItems(n int) [][]byte {
	gen := urlgen.New(42)
	items := make([][]byte, n)
	for i := range items {
		items[i] = gen.Next()
	}
	return items
}

// syncedBaseline is the seed repo's concurrency story made monitorable: one
// global mutex around one filter, stats by scanning the bit vector under
// that same mutex (the filter exposes no cheaper way).
type syncedBaseline struct {
	mu     sync.Mutex
	filter *core.Bloom
}

func newSyncedBaseline(b *testing.B, fam hashes.IndexFamily) *syncedBaseline {
	b.Helper()
	return &syncedBaseline{filter: core.NewBloom(fam)}
}

func (s *syncedBaseline) Add(item []byte) {
	s.mu.Lock()
	s.filter.Add(item)
	s.mu.Unlock()
}

func (s *syncedBaseline) Test(item []byte) bool {
	s.mu.Lock()
	ok := s.filter.Test(item)
	s.mu.Unlock()
	return ok
}

func (s *syncedBaseline) Stats() (weight uint64, fpr float64) {
	s.mu.Lock()
	weight = s.filter.Weight() // O(m) popcount while all traffic waits
	fpr = core.FPForgeryProbability(s.filter.M(), s.filter.K(), weight)
	s.mu.Unlock()
	return weight, fpr
}

func newMurmurFamily(b *testing.B, totalBits uint64, k int) hashes.IndexFamily {
	b.Helper()
	fam, err := hashes.NewDoubleHashing(k, totalBits, 3)
	if err != nil {
		b.Fatal(err)
	}
	return fam
}

func newRecyclingFamily(b *testing.B, totalBits uint64, k int) hashes.IndexFamily {
	b.Helper()
	d, err := hashes.NewDigester(hashes.SipHash24Alg, []byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	fam, err := hashes.NewRecycling(d, k, totalBits)
	if err != nil {
		b.Fatal(err)
	}
	return fam
}

func newShardedBench(b *testing.B, shards int, totalBits uint64, k int, mode Mode) *Sharded {
	b.Helper()
	s, err := NewSharded(Config{
		Shards:    shards,
		ShardBits: totalBits / uint64(shards),
		HashCount: k,
		Mode:      mode,
		Seed:      3,
		Key:       []byte("0123456789abcdef"),
		RouteKey:  []byte("fedcba9876543210"),
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func newBlockedBench(b *testing.B, shards int, totalBits uint64, k int) *Sharded {
	b.Helper()
	s, err := NewSharded(Config{
		Variant:   VariantBlocked,
		Shards:    shards,
		ShardBits: totalBits / uint64(shards),
		HashCount: k,
		Mode:      ModeNaive,
		Seed:      3,
		RouteKey:  []byte("fedcba9876543210"),
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// runMixed drives 90% membership tests / 10% adds across all procs, with an
// optional stats poll every statsEvery ops (0 = never) — the monitoring
// traffic a live service actually serves.
func runMixed(b *testing.B, add func([]byte), test func([]byte) bool, stats func(), statsEvery int, items [][]byte) {
	for _, it := range items[:len(items)/2] {
		add(it)
	}
	var ctr atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(ctr.Add(1)) * 7919 // decorrelate goroutine walks
		var sink bool
		for pb.Next() {
			it := items[i&(len(items)-1)]
			switch {
			case statsEvery > 0 && i%statsEvery == 0:
				stats()
			case i%10 == 0:
				add(it)
			default:
				sink = sink != test(it)
			}
			i++
		}
		_ = sink
	})
}

// BenchmarkParallelMixed compares the single-mutex Synced wrapper against
// Sharded at several stripe counts under parallel mixed load, with the same
// Murmur double-hashing family and identical total geometry, so the delta is
// purely the locking architecture plus the keyed shard router. On a
// single-core host Sharded pays its ~45 ns routing overhead with no
// parallelism to recoup it; with GOMAXPROCS > 1 the stripes win.
func BenchmarkParallelMixed(b *testing.B) {
	const totalBits, k = 1 << 24, 5
	items := benchItems(1 << 16)
	b.Run("synced", func(b *testing.B) {
		f := newSyncedBaseline(b, newMurmurFamily(b, totalBits, k))
		runMixed(b, f.Add, f.Test, nil, 0, items)
	})
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sharded-%d", shards), func(b *testing.B) {
			s := newShardedBench(b, shards, totalBits, k, ModeNaive)
			runMixed(b, s.Add, s.Test, nil, 0, items)
		})
	}
}

// BenchmarkParallelMixedHardened is the same comparison with the §8.2 keyed
// SipHash-recycling family — the configuration a deployment that cares
// about the paper's attacks would actually run. Hashing dominates, so the
// routing overhead vanishes even on one core, and Synced serializes the
// whole hash computation inside its lock while Sharded keeps it outside.
func BenchmarkParallelMixedHardened(b *testing.B) {
	const totalBits, k = 1 << 24, 10
	items := benchItems(1 << 14)
	b.Run("synced", func(b *testing.B) {
		f := newSyncedBaseline(b, newRecyclingFamily(b, totalBits, k))
		runMixed(b, f.Add, f.Test, nil, 0, items)
	})
	b.Run("sharded-16", func(b *testing.B) {
		s := newShardedBench(b, 16, totalBits, k, ModeHardened)
		runMixed(b, s.Add, s.Test, nil, 0, items)
	})
}

// BenchmarkParallelMixedMonitored adds what every live deployment has:
// periodic stats polling (1 in 512 ops, a modest scrape rate under load).
// The Synced baseline answers by popcounting the whole bit vector under the
// global mutex; Sharded tracks weights incrementally and answers in
// O(shards) — a hardware-independent win.
func BenchmarkParallelMixedMonitored(b *testing.B) {
	const totalBits, k, statsEvery = 1 << 24, 5, 512
	items := benchItems(1 << 16)
	b.Run("synced", func(b *testing.B) {
		f := newSyncedBaseline(b, newMurmurFamily(b, totalBits, k))
		runMixed(b, f.Add, f.Test, func() { f.Stats() }, statsEvery, items)
	})
	b.Run("sharded-16", func(b *testing.B) {
		s := newShardedBench(b, 16, totalBits, k, ModeNaive)
		runMixed(b, s.Add, s.Test, func() { s.Stats() }, statsEvery, items)
	})
}

// BenchmarkLoggedMixed prices the write-ahead log under
// BenchmarkParallelMixed's parallel mixed load on a 16-shard store: with no
// journal (the baseline), and with the journal under each flush policy.
// Every add is of a key nobody added before, as in BenchmarkCommittedAddBatch
// — a repeat add on a bloom store changes nothing and journals nothing — so
// each one applies, frames its record inside the shard critical section,
// then commits (Persister.commit) as a turn of its own, which waits for the
// disk only under "always", where concurrent adds share an fsync.
func BenchmarkLoggedMixed(b *testing.B) {
	const totalBits, k = 1 << 24, 5
	items := benchItems(1 << 16)
	// freshAdd passes runMixed's pre-add of items[:len(items)/2] through,
	// then gives every later add a fresh key.
	freshAdd := func(add func([]byte)) func([]byte) {
		var n atomic.Uint64
		return func(it []byte) {
			if i := n.Add(1); i > uint64(len(items)/2) {
				it = strconv.AppendUint([]byte("fresh-"), i, 10)
			}
			add(it)
		}
	}
	b.Run("unlogged", func(b *testing.B) {
		s := newShardedBench(b, 16, totalBits, k, ModeNaive)
		runMixed(b, freshAdd(s.Add), s.Test, nil, 0, items)
	})
	for _, policy := range []SyncPolicy{SyncNever, SyncInterval, SyncAlways} {
		b.Run("wal-"+policy.String(), func(b *testing.B) {
			s := newShardedBench(b, 16, totalBits, k, ModeNaive)
			p, err := createPersister(b.TempDir(), s.config(), policy, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close() //nolint:errcheck
			s.SetJournal(p)
			add := func(it []byte) {
				s.Add(it)
				if err := p.commit(); err != nil {
					b.Error(err)
				}
			}
			runMixed(b, freshAdd(add), s.Test, nil, 0, items)
			if err := p.Err(); err != nil {
				b.Fatalf("journal failed during bench: %v", err)
			}
		})
	}
}

// BenchmarkCommittedAddBatch prices a durable turn: each of 1 or 2 writers
// adds batches of 256 items nobody added before and commits each batch, the
// way a codec commits a connection turn. Under "always" the writers share
// fsyncs; under "interval" the commit returns at once. ns/item is the wall
// time per journaled item.
func BenchmarkCommittedAddBatch(b *testing.B) {
	const batch = 256
	for _, policy := range []SyncPolicy{SyncInterval, SyncAlways} {
		for _, writers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/writers=%d", policy, writers), func(b *testing.B) {
				s := newShardedBench(b, 8, 1<<27, 5, ModeNaive)
				p, err := createPersister(b.TempDir(), s.config(), policy, nil)
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close() //nolint:errcheck
				s.SetJournal(p)
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						items := make([][]byte, batch)
						for i := range items {
							items[i] = make([]byte, 0, 32)
						}
						for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
							for i := range items {
								items[i] = fmt.Appendf(items[i][:0], "fresh-%d-%d", n, i)
							}
							s.AddBatch(items)
							if err := p.commit(); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/item")
			})
		}
	}
}

// BenchmarkBatchAdd measures the lock-once-per-shard batch path against
// looping over singleton adds.
func BenchmarkBatchAdd(b *testing.B) {
	const totalBits, k, batch = 1 << 24, 5, 256
	items := benchItems(batch)
	b.Run("singleton-loop", func(b *testing.B) {
		s := newShardedBench(b, 16, totalBits, k, ModeNaive)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				s.Add(it)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		s := newShardedBench(b, 16, totalBits, k, ModeNaive)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AddBatch(items)
		}
	})
	// The durable workload's geometry (hardened layout 3, 8 shards, 1.6 M
	// capacity at 1 %), journaled under interval. fresh adds 512-key
	// batches of keys nobody added before — each key's first 8 bytes are a
	// counter — and starts over on a new store every 800 000 keys, the
	// workload's preload; repeat re-adds 64-key windows of keys already
	// present, which set no bit and journal nothing. Run at -cpu 1.
	durable := func(b *testing.B) (*Sharded, func()) {
		s, err := NewSharded(Config{
			Shards: 8, Capacity: 1_600_000, TargetFPR: 0.01, Mode: ModeHardened,
			Key: []byte("0123456789abcdef"), RouteKey: []byte("fedcba9876543210"),
		})
		if err != nil {
			b.Fatal(err)
		}
		p, err := createPersister(b.TempDir(), s.config(), SyncInterval, nil)
		if err != nil {
			b.Fatal(err)
		}
		s.SetJournal(p)
		return s, func() {
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hardened-v3/fresh-interval-512", func(b *testing.B) {
		const preload = 800_000
		batch := benchItems(512)
		for i, it := range batch {
			batch[i] = append(make([]byte, 8, 8+len(it)), it...)
		}
		s, done := durable(b)
		n := uint64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n+uint64(len(batch)) > preload {
				b.StopTimer()
				done()
				s, done = durable(b)
				n = 0
				b.StartTimer()
			}
			for _, it := range batch {
				binary.LittleEndian.PutUint64(it, n)
				n++
			}
			s.AddBatch(batch)
		}
		b.StopTimer()
		done()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/key")
	})
	b.Run("hardened-v3/repeat-64", func(b *testing.B) {
		present := benchItems(1 << 16)
		s, done := durable(b)
		defer done()
		s.AddBatch(present)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := i * 64 % len(present)
			s.AddBatch(present[lo : lo+64])
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/key")
	})
}

// BenchmarkHardenedOverhead prices the §8.2 countermeasure at the service
// layer: naive Murmur double hashing vs keyed SipHash recycling, single
// goroutine so the hash cost dominates.
func BenchmarkHardenedOverhead(b *testing.B) {
	for _, mode := range []Mode{ModeNaive, ModeHardened} {
		b.Run(mode.String(), func(b *testing.B) {
			s := newShardedBench(b, 8, 1<<24, 5, mode)
			items := benchItems(1 << 12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(items[i&(len(items)-1)])
			}
		})
	}
}

// newCountingBench builds a counting-variant store with the same geometry
// conventions as newShardedBench.
func newCountingBench(b *testing.B, shards int, totalBits uint64, k int, policy core.OverflowPolicy) *Sharded {
	b.Helper()
	s, err := NewSharded(Config{
		Variant:   VariantCounting,
		Shards:    shards,
		ShardBits: totalBits / uint64(shards),
		HashCount: k,
		Mode:      ModeNaive,
		Seed:      3,
		RouteKey:  []byte("fedcba9876543210"),
		Overflow:  policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkVariantMixed prices the backend abstraction across variants:
// the identical parallel mixed load through bloom shards (one bit per
// position) and counting shards (4-bit packed counters). The delta is the
// packed-counter arithmetic, not the service layer — routing, locking and
// index derivation are shared code.
func BenchmarkVariantMixed(b *testing.B) {
	const totalBits, k = 1 << 22, 5
	items := benchItems(1 << 16)
	b.Run("bloom", func(b *testing.B) {
		s := newShardedBench(b, 16, totalBits, k, ModeNaive)
		runMixed(b, s.Add, s.Test, nil, 0, items)
	})
	b.Run("blocked", func(b *testing.B) {
		s := newBlockedBench(b, 16, totalBits, k)
		runMixed(b, s.Add, s.Test, nil, 0, items)
	})
	for _, policy := range []core.OverflowPolicy{core.Wrap, core.Saturate} {
		b.Run("counting-"+policy.String(), func(b *testing.B) {
			s := newCountingBench(b, 16, totalBits, k, policy)
			runMixed(b, s.Add, s.Test, nil, 0, items)
		})
	}
}

// BenchmarkRemove measures the test-and-remove path (one shard lock per
// item, add first so removals mostly succeed) against plain adds on the
// same counting store.
func BenchmarkRemove(b *testing.B) {
	const totalBits, k = 1 << 22, 5
	items := benchItems(1 << 14)
	b.Run("add", func(b *testing.B) {
		s := newCountingBench(b, 16, totalBits, k, core.Saturate)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Add(items[i&(len(items)-1)])
		}
	})
	b.Run("add-remove", func(b *testing.B) {
		s := newCountingBench(b, 16, totalBits, k, core.Saturate)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := items[i&(len(items)-1)]
			s.Add(it)
			if _, err := s.Remove(it); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTestBatch prices the lock-free read path per key: 64-key
// TestBatch windows of URL-shaped keys (32–47 bytes, as the bench sends),
// present and absent keys alternating, at the bench's three read
// geometries: the 0.95 MiB naive filter at its design fill (fits L2), the
// 55 MiB naive one filled as the bench fills it (1 M keys added, then a
// random word ORed into every word, ≈ 50 % of bits set: every probe a
// likely cache miss, an absent key's first clear bit about two probes in)
// and the hardened layout-3 filter at capacity. Run it at -cpu 1.
func BenchmarkTestBatch(b *testing.B) {
	for _, tc := range []struct {
		name     string
		mode     Mode
		capacity uint64
		keys     int
		noise    bool
	}{
		{"small-naive", ModeNaive, 800_000, 800_000, false},
		{"large-naive", ModeNaive, 48_000_000, 1_000_000, true},
		{"hardened-v3", ModeHardened, 1_600_000, 1_600_000, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := NewSharded(Config{Shards: 8, Capacity: tc.capacity, TargetFPR: 0.01, Mode: tc.mode})
			if err != nil {
				b.Fatal(err)
			}
			key := func(i int) []byte {
				item := fmt.Appendf(nil, "http://h%03x.ex.org/u/a%010x%016x", i%4096, i, uint64(i)*0x9e3779b97f4a7c15)
				return item[:32+(i*7)%16]
			}
			window := make([][]byte, 0, 4096)
			for lo := 0; lo < tc.keys; lo += cap(window) {
				window = window[:0]
				for i := lo; i < min(lo+cap(window), tc.keys); i++ {
					window = append(window, key(i))
				}
				s.AddBatch(window)
			}
			if tc.noise {
				state := uint64(1)
				for i := range s.shards {
					bits := s.shards[i].backend.(bloomBackend).Bits()
					for w := 0; w+1 < bits.Words(); w++ {
						state = state*6364136223846793005 + 1442695040888963407
						bits.SetWord(w, bits.Word(w)|state^state>>29)
					}
				}
			}
			// Even positions hold present keys, odd ones keys never added.
			queries := make([][]byte, 1<<14)
			for i := range queries {
				queries[i] = key(i/2*7919%tc.keys + (i&1)*tc.keys)
			}
			dst := make([]bool, 0, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * 64 % len(queries)
				dst = s.TestBatch(dst[:0], queries[lo:lo+64])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/key")
		})
	}
}
