package service

import (
	"fmt"
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

// BenchmarkLoggedMixed prices the write-ahead log next to
// BenchmarkParallelMixed: the identical parallel mixed load on a 16-shard
// store with no journal (the baseline — must match sharded-16 above within
// noise), with the buffered journal under each flush policy, and with
// synchronous per-operation fsync. The buffered policies pay one in-memory
// record append inside the shard critical section; "always" pays a disk
// round-trip per mutation and is listed to make that price visible.
func BenchmarkLoggedMixed(b *testing.B) {
	const totalBits, k = 1 << 24, 5
	items := benchItems(1 << 16)
	b.Run("unlogged", func(b *testing.B) {
		s := newShardedBench(b, 16, totalBits, k, ModeNaive)
		runMixed(b, s.Add, s.Test, nil, 0, items)
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
			runMixed(b, s.Add, s.Test, nil, 0, items)
			if err := p.Err(); err != nil {
				b.Fatalf("journal failed during bench: %v", err)
			}
		})
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
