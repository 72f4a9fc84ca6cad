package service

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// Mode selects the index-derivation scheme served by a Sharded store.
type Mode int

const (
	// ModeNaive is the attackable configuration of §6: unkeyed MurmurHash3
	// double hashing with a public seed shared by every shard, exactly like
	// dablooms' compile-time seed constant. Nothing about where an item goes
	// is secret — its shard included.
	ModeNaive Mode = iota
	// ModeHardened is the §8.2 countermeasure: keyed SipHash-2-4 with digest
	// recycling, every key a server-side secret.
	ModeHardened
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNaive:
		return "naive"
	case ModeHardened:
		return "hardened"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves "naive" or "hardened"; the empty string is the naive
// default so wire specs may omit it.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "naive":
		return ModeNaive, nil
	case "hardened":
		return ModeHardened, nil
	default:
		return 0, fmt.Errorf("service: unknown mode %q (want naive or hardened)", s)
	}
}

// Structural limits enforced by Config.withDefaults. Unlike the registry's
// storage-bits caps these bound allocations that happen *before* any bit of
// filter storage exists: the []shard array, per-shard pools, index families
// and per-item index buffers all scale with these factors, so an
// unauthenticated filter spec must not pick them freely.
const (
	// MaxShards caps the shard count (must also be a power of two).
	MaxShards = 1 << 16
	// MaxHashCount caps k: every pooled scratch and every batch request
	// buffers k uint64 indexes per item.
	MaxHashCount = 512
)

// Config sizes and keys a Sharded store.
type Config struct {
	// Variant selects the per-shard backend: VariantBloom (default, no
	// deletion), VariantCounting (§4.3 deletion, configurable overflow) or
	// VariantBlocked (cache-line-local probes, no deletion; ShardBits rounds
	// up to a multiple of 512).
	Variant Variant
	// Shards is the shard count; it must be a power of two. Default 8.
	Shards int
	// Capacity is the total anticipated insertions across all shards.
	// Default 1<<20. Ignored when ShardBits is set.
	Capacity uint64
	// TargetFPR is the designed false-positive probability. Default 2^-10.
	// Ignored (for sizing) when both ShardBits and HashCount are set.
	TargetFPR float64
	// ShardBits optionally fixes each shard's size in bits instead of
	// deriving it from Capacity and TargetFPR — experiments reproducing a
	// paper geometry (m=3200, k=4) set this together with HashCount.
	ShardBits uint64
	// HashCount optionally fixes k instead of deriving it from TargetFPR.
	HashCount int
	// Mode selects naive or hardened index derivation. Default ModeNaive.
	Mode Mode
	// Seed is the public MurmurHash3 seed used in ModeNaive.
	Seed uint64
	// Key is the 16-byte server secret used in ModeHardened. Drawn from
	// crypto/rand when nil.
	Key []byte
	// RouteKey is the 16-byte routing secret. Drawn from crypto/rand when
	// nil. A hardened store folds it into its one placement key; a naive
	// store of the current layout does not use it (its shard is public, like
	// its indexes); stores recovered under layout v1 route by it.
	RouteKey []byte
	// CounterWidth is the counter size in bits for VariantCounting (default
	// 4, the dablooms width). It must be zero for VariantBloom.
	CounterWidth int
	// Overflow selects what a counting shard does when a counter saturates
	// (default core.Wrap, faithful to dablooms and what the §6.2 attack
	// exploits; core.Saturate is the countermeasure). Zero for VariantBloom.
	Overflow core.OverflowPolicy
	// layout is the placement layout (hashes.Layout). Zero, all a caller
	// outside this package can pass, means the current one; recovery from a
	// data directory or an envelope sets what was recorded.
	layout hashes.Layout
}

// currentLayout is the placement layout every newly created store gets.
const currentLayout = hashes.LayoutV2

// withDefaults fills zero fields and validates the result.
func (c Config) withDefaults() (Config, error) {
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Shards < 1 || c.Shards&(c.Shards-1) != 0 {
		return c, fmt.Errorf("service: shard count %d is not a power of two", c.Shards)
	}
	if c.Shards > MaxShards {
		return c, fmt.Errorf("service: shard count %d exceeds %d", c.Shards, MaxShards)
	}
	if c.Capacity == 0 {
		c.Capacity = 1 << 20
	}
	if c.TargetFPR == 0 {
		c.TargetFPR = 1.0 / 1024
	}
	if c.TargetFPR <= 0 || c.TargetFPR >= 1 {
		return c, fmt.Errorf("service: target FPR %v out of (0, 1)", c.TargetFPR)
	}
	if c.ShardBits == 0 {
		perShard := (c.Capacity + uint64(c.Shards) - 1) / uint64(c.Shards)
		c.ShardBits = core.OptimalM(perShard, c.TargetFPR)
		if c.ShardBits == 0 {
			return c, fmt.Errorf("service: capacity %d and FPR %v yield an empty shard", c.Capacity, c.TargetFPR)
		}
	}
	if c.HashCount == 0 {
		c.HashCount = core.KForFPR(c.TargetFPR)
	}
	if c.HashCount < 1 {
		return c, fmt.Errorf("service: hash count %d must be positive", c.HashCount)
	}
	if c.HashCount > MaxHashCount {
		return c, fmt.Errorf("service: hash count %d exceeds %d", c.HashCount, MaxHashCount)
	}
	switch c.Variant {
	case VariantBloom, VariantBlocked:
		if c.CounterWidth != 0 {
			return c, fmt.Errorf("service: counter width %d set on a %v filter (counters need variant=counting)", c.CounterWidth, c.Variant)
		}
		if c.Overflow != 0 {
			return c, fmt.Errorf("service: overflow policy %v set on a %v filter (counters need variant=counting)", c.Overflow, c.Variant)
		}
		if c.Variant == VariantBlocked {
			// Every block is one whole cache line; round the shard size up to
			// a block multiple so no partial block exists. The rounded size is
			// what the registry charges, the snapshot envelope records, and
			// the info endpoints report.
			rounded := (c.ShardBits + core.BlockBits - 1) / core.BlockBits * core.BlockBits
			if rounded < c.ShardBits { // arithmetic wrapped: absurd size
				return c, fmt.Errorf("service: shard size %d overflows block rounding", c.ShardBits)
			}
			c.ShardBits = rounded
		}
	case VariantCounting:
		if c.CounterWidth == 0 {
			c.CounterWidth = 4
		}
		// Mirror core's packed-counter bound here so the width entering the
		// registry's storage arithmetic is never negative or absurd.
		if c.CounterWidth < 1 || c.CounterWidth > 16 {
			return c, fmt.Errorf("service: counter width %d outside [1,16]", c.CounterWidth)
		}
		if c.Overflow == 0 {
			c.Overflow = core.Wrap
		}
	default:
		return c, fmt.Errorf("service: unknown variant %v", c.Variant)
	}
	if c.layout == 0 {
		c.layout = currentLayout
	}
	var err error
	if c.RouteKey, err = ensureKey(c.RouteKey); err != nil {
		return c, err
	}
	if c.Mode == ModeHardened {
		if c.Key, err = ensureKey(c.Key); err != nil {
			return c, err
		}
	}
	return c, nil
}

// ensureKey returns key when it is already 16 bytes, a fresh random key when
// it is nil, and an error otherwise.
func ensureKey(key []byte) ([]byte, error) {
	if key == nil {
		key = make([]byte, 16)
		if _, err := rand.Read(key); err != nil {
			return nil, fmt.Errorf("service: drawing key: %w", err)
		}
		return key, nil
	}
	if len(key) != 16 {
		return nil, fmt.Errorf("service: keys must be 16 bytes, got %d", len(key))
	}
	return key, nil
}

// shard pairs one backend with its lock.
type shard struct {
	mu      sync.RWMutex
	backend Backend
	// remover caches the backend's Remover capability (nil when absent) so
	// the remove hot path skips a per-call type assertion.
	remover Remover
	// atomic caches the backend's atomicReader capability when its geometry
	// supports torn-free atomic reads (nil otherwise): the lock-free Test
	// path. Membership tests through it take no lock at all; mutations still
	// serialize under mu and store words atomically, so readers never see a
	// torn word and the weight/generation/journal accounting — all of it on
	// the write side — is untouched.
	atomic atomicReader
	// weight tracks the backend's occupied-position count incrementally
	// from the fresh/zeroed deltas AddIndexes and RemoveIndexes report, so
	// Stats is O(shards) instead of an O(m) scan under the lock.
	weight uint64
	// muts counts effective mutations (adds, accepted removals, restores),
	// maintained under the write lock the mutation already holds. The sum
	// across shards is the store's Generation — the cheap monotone version
	// number the digest exchange uses for its ETag short-circuit.
	muts uint64
}

// Sharded is a striped-lock filter store: N independent backend shards, an
// item's shard and indexes given by the store's one hashes.Placement (always
// outside any lock). It implements core.Filter; unlike
// core.Synced it scales with parallel load because operations on different
// shards proceed concurrently and membership tests on the same shard share a
// read lock. The shards are variant-generic: any Backend (plain bloom,
// counting under either overflow policy, or a future hardened construction)
// reuses the same routing, locking, batching and incremental-stats code.
type Sharded struct {
	shards  []shard
	place   *hashes.Placement
	variant Variant
	mode    Mode
	seed    uint64
	k       int
	mShard  uint64
	width   int
	policy  core.OverflowPolicy
	// etagSalt makes digest ETags unique per store instance. The mutation
	// counter behind Generation resets on restart, so a bare generation
	// could re-pass through an ETag value a peer already holds and earn a
	// spurious 304 for different content; a fresh random salt per boot
	// makes pre-restart ETags never match again.
	etagSalt uint64
	// cfg is the normalized configuration the store was built from,
	// including its secrets — retained so the persistence layer can rebuild
	// an identical store at boot. Never exposed through the public API.
	cfg Config
	// journal, when non-nil, receives every effective mutation from inside
	// the owning shard's critical section, so the journal order of
	// operations on one shard matches their application order (operations on
	// different shards touch disjoint state and commute under replay). Set
	// once via SetJournal before the store serves traffic.
	journal Journal
	// deltaMu serializes digest-delta exchanges and guards deltaBase, the
	// occupancy snapshot of the last digest served to a delta-capable peer.
	// Only DigestExchange touches either; the membership hot path never
	// sees this lock.
	deltaMu   sync.Mutex
	deltaBase *digestBaseline
	// groupings pools the working set of one call — a batch's visiting plan
	// and one window of indexes — so a steady stream of calls allocates
	// nothing.
	groupings sync.Pool // of *grouping
}

// Journal receives the store's effective mutations — the append-only
// operation log of the persistence layer. Calls arrive under a shard's write
// lock and must not block on anything that could itself wait on a shard lock
// (a buffered in-memory append is the intended implementation).
type Journal interface {
	// JournalAdd records an insertion. Item aliases caller memory; copy it.
	JournalAdd(item []byte)
	// JournalRemove records an accepted removal (refused removals never
	// mutate state and are not journaled). Item aliases caller memory.
	JournalRemove(item []byte)
}

// SetJournal attaches the mutation journal. It must be called before the
// store serves concurrent traffic (the registry attaches it between replay
// and publication at boot).
func (s *Sharded) SetJournal(j Journal) { s.journal = j }

// config returns the store's normalized build configuration, secrets
// included — for the persistence layer only.
func (s *Sharded) config() Config { return s.cfg }

var _ core.Filter = (*Sharded)(nil)

// NewSharded builds a store from cfg (zero fields take defaults).
func NewSharded(cfg Config) (*Sharded, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var salt [8]byte
	if _, err := rand.Read(salt[:]); err != nil {
		return nil, fmt.Errorf("service: drawing etag salt: %w", err)
	}
	place, err := hashes.NewPlacement(hashes.PlacementSpec{
		Layout: cfg.layout, Keyed: cfg.Mode == ModeHardened,
		Shards: cfg.Shards, K: cfg.HashCount, M: cfg.ShardBits,
		Seed: cfg.Seed, Key: cfg.Key, RouteKey: cfg.RouteKey,
	})
	if err != nil {
		return nil, err
	}
	s := &Sharded{
		shards:   make([]shard, cfg.Shards),
		place:    place,
		variant:  cfg.Variant,
		mode:     cfg.Mode,
		seed:     cfg.Seed,
		k:        cfg.HashCount,
		mShard:   cfg.ShardBits,
		width:    cfg.CounterWidth,
		policy:   cfg.Overflow,
		etagSalt: binary.LittleEndian.Uint64(salt[:]),
		cfg:      cfg,
	}
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.backend, err = newBackend(cfg, place.Family(i)); err != nil {
			return nil, err
		}
		sh.remover, _ = sh.backend.(Remover)
		if ar, ok := sh.backend.(atomicReader); ok && ar.LockFreeReads() {
			sh.atomic = ar
		}
	}
	return s, nil
}

// place1 checks a working set out of the pool with one item placed: its
// shard, and its indexes in g.idx. The caller returns g with ungroup.
func (s *Sharded) place1(item []byte) (*shard, *grouping) {
	g := s.checkout()
	var si int
	si, g.idx = s.place.Place(g.idx[:0], item)
	return &s.shards[si], g
}

// Add implements core.Filter. Placement happens outside the shard lock; only
// the position writes are serialized.
func (s *Sharded) Add(item []byte) {
	sh, g := s.place1(item)
	sh.mu.Lock()
	sh.weight = applyDelta(sh.weight, sh.backend.AddIndexes(g.idx))
	sh.muts++
	if s.journal != nil {
		s.journal.JournalAdd(item)
	}
	sh.mu.Unlock()
	s.ungroup(g)
}

// applyDelta shifts an unsigned weight by a signed occupancy change (wrap
// overflows make add deltas negative).
func applyDelta(w uint64, d int) uint64 { return uint64(int64(w) + int64(d)) }

// Test implements core.Filter. When the backend supports torn-free atomic
// reads (every shipped variant except straddling-width counters), the test
// is pure atomic word loads with no lock at all — a test racing a mutation
// returns an answer from some state the shard passed through, the same
// guarantee the RLock gave, minus two atomic RMWs of lock traffic per call.
// Other backends fall back to sharing the shard's read lock.
func (s *Sharded) Test(item []byte) bool {
	sh, g := s.place1(item)
	var ok bool
	if sh.atomic != nil {
		ok = sh.atomic.TestIndexesAtomic(g.idx)
	} else {
		sh.mu.RLock()
		ok = sh.backend.TestIndexes(g.idx)
		sh.mu.RUnlock()
	}
	s.ungroup(g)
	return ok
}

// Removable reports whether the store's backends support deletion.
func (s *Sharded) Removable() bool { return s.shards[0].remover != nil }

// Snapshotable reports whether the store's backends support snapshots.
func (s *Sharded) Snapshotable() bool {
	_, ok := s.shards[0].backend.(Snapshotter)
	return ok
}

// Remove deletes item if the filter currently believes it present,
// reporting whether a removal happened. The membership check and the
// decrements run under one shard lock, so a concurrent storm of removals
// can never drive a counter below zero — each removal only decrements
// counters the check just saw non-zero. It returns ErrNotRemovable when the
// backend has no Remover capability (plain bloom shards).
//
// The check guards the *filter's belief*, not the truth: a crafted item the
// filter wrongly believes present (a §4.3 Bloom second pre-image) passes it
// and its removal silently damages every honest item sharing its counters.
// That asymmetry is the paper's deletion attack, and the reason hardened
// mode keeps index positions unpredictable.
func (s *Sharded) Remove(item []byte) (bool, error) {
	if !s.Removable() {
		return false, ErrNotRemovable
	}
	sh, g := s.place1(item)
	sh.mu.Lock()
	removed, err := sh.removeLocked(g.idx)
	if removed {
		sh.muts++
		if s.journal != nil {
			s.journal.JournalRemove(item)
		}
	}
	sh.mu.Unlock()
	s.ungroup(g)
	return removed, err
}

// removeLocked test-and-removes one index set; the caller holds the shard's
// write lock. The membership check refuses items the filter believes
// absent; the CanRemoveIndexes check additionally refuses crafted
// duplicate-position items that would underflow mid-removal, so the
// partial-removal footprint is unreachable through the service.
func (sh *shard) removeLocked(idx []uint64) (bool, error) {
	if !sh.backend.TestIndexes(idx) || !sh.remover.CanRemoveIndexes(idx) {
		return false, nil
	}
	zeroed, err := sh.remover.RemoveIndexes(idx)
	sh.weight -= uint64(zeroed)
	if err != nil {
		// Unreachable while the lock pairs both checks with the decrements,
		// but a future backend could fail differently; surface it.
		return true, fmt.Errorf("service: removal failed mid-way: %w", err)
	}
	return true, nil
}

// RemoveBatch deletes every item the filter believes present, reporting
// per-item outcomes in input order. Like AddBatch it groups by shard and
// takes each shard's lock once per window. It returns ErrNotRemovable for
// backends without the capability.
func (s *Sharded) RemoveBatch(items [][]byte) ([]bool, error) {
	if !s.Removable() {
		return nil, ErrNotRemovable
	}
	removed := make([]bool, len(items))
	g := s.group(items)
	defer s.ungroup(g)
	for lo := 0; lo < len(g.order); {
		si, run := g.run(lo)
		lo += len(run)
		sh := &s.shards[si]
		idx := s.derive(g, items, si, run)
		sh.mu.Lock()
		for j, ii := range run {
			ok, err := sh.removeLocked(idx[j*s.k : (j+1)*s.k])
			if err != nil {
				sh.mu.Unlock()
				return removed, err
			}
			if ok {
				sh.muts++
				if s.journal != nil {
					s.journal.JournalRemove(items[ii])
				}
			}
			removed[ii] = ok
		}
		sh.mu.Unlock()
	}
	return removed, nil
}

// AddBatch inserts every item, grouping by shard so each shard's lock is
// taken once per window of the batch instead of once per item.
func (s *Sharded) AddBatch(items [][]byte) {
	g := s.group(items)
	for lo := 0; lo < len(g.order); {
		si, run := g.run(lo)
		lo += len(run)
		sh := &s.shards[si]
		idx := s.derive(g, items, si, run)
		sh.mu.Lock()
		for j, ii := range run {
			sh.weight = applyDelta(sh.weight, sh.backend.AddIndexes(idx[j*s.k:(j+1)*s.k]))
			sh.muts++
			if s.journal != nil {
				s.journal.JournalAdd(items[ii])
			}
		}
		sh.mu.Unlock()
	}
	s.ungroup(g)
}

// TestBatch reports membership for every item, in input order; the result is
// appended to dst. Grouping by shard exists to take each shard's lock once,
// so a store that reads lock-free (all shards of a store have one backend
// type) skips the sort and takes the items in windows as they come: place a
// window, then probe it — keeping a window's probes, independent loads,
// together is what lets a filter larger than the cache overlap its misses.
func (s *Sharded) TestBatch(dst []bool, items [][]byte) []bool {
	base := len(dst)
	dst = append(dst, make([]bool, len(items))...)
	if s.shards[0].atomic != nil {
		g := s.checkout()
		g.shard = resized(g.shard, min(len(items), deriveWindow))
		for lo := 0; lo < len(items); lo += deriveWindow {
			window := items[lo:min(lo+deriveWindow, len(items))]
			idx := resized(g.idx, len(window)*s.k)[:0]
			for j, it := range window {
				var si int
				si, idx = s.place.Place(idx, it)
				g.shard[j] = uint16(si)
			}
			g.idx = idx
			for j := range window {
				dst[base+lo+j] = s.shards[g.shard[j]].atomic.TestIndexesAtomic(idx[j*s.k : (j+1)*s.k])
			}
		}
		s.ungroup(g)
		return dst
	}
	g := s.group(items)
	for lo := 0; lo < len(g.order); {
		si, run := g.run(lo)
		lo += len(run)
		sh := &s.shards[si]
		idx := s.derive(g, items, si, run)
		sh.mu.RLock()
		for j, ii := range run {
			dst[base+ii] = sh.backend.TestIndexes(idx[j*s.k : (j+1)*s.k])
		}
		sh.mu.RUnlock()
	}
	s.ungroup(g)
	return dst
}

// derive fills g.idx with the indexes of items[run[0]], items[run[1]], …, k
// apiece, from the digests group kept — outside any lock — and returns it.
// run is one window, so the scratch is deriveWindow × k however large the
// batch.
func (s *Sharded) derive(g *grouping, items [][]byte, shard int, run []int) []uint64 {
	idx := resized(g.idx, len(run)*s.k)[:0]
	for _, ii := range run {
		idx = s.place.Indexes(idx, items[ii], shard, g.digest[ii])
	}
	g.idx = idx
	return idx
}

// grouping is one batch's visiting plan: the item positions sorted by
// destination shard, ascending, input order kept within a shard — the order
// the journal sees a batch in, which replay therefore depends on. Everything
// in it is sized by the batch; nothing is sized by the shard count, so a
// one-item batch costs the same on 65 536 shards as on 8.
type grouping struct {
	shard  []uint16                 // destination shard of items[i]
	digest []hashes.PlacementDigest // what routing items[i] already computed of its indexes
	order  []int                    // item positions in visiting order
	tmp    []int                    // the radix sort's second buffer, stores above 256 shards only
	// idx is one window's indexes (or a single-item call's): at most
	// deriveWindow × k, never sized by the batch.
	idx []uint64
}

// MaxShards-1 must fit grouping.shard's element type.
const _ = uint16(MaxShards - 1)

// maxPooledGrouping is the largest batch whose grouping goes back to the
// pool: a direct caller's million-item AddBatch must not pin its scratch for
// the life of the store. It equals httpapi's cap on pooled item slices.
const maxPooledGrouping = 4096

// deriveWindow is how many keys have their indexes derived, then applied, at
// a time. Deriving a whole run at once made the index scratch run × k — 41 MB
// for one 10 000-item request against a 1-shard k = 512 filter any client may
// create. A window takes its shard's lock once; 64 keys bound the scratch to
// 256 KiB at k = 512 and hold every run the bench sends.
const deriveWindow = 64

// checkout takes a working set from the pool.
func (s *Sharded) checkout() *grouping {
	if g, _ := s.groupings.Get().(*grouping); g != nil {
		return g
	}
	return new(grouping)
}

// group routes every item, keeping what routing learned of its indexes, and
// sorts the positions by shard: a stable LSD
// radix sort on the shard number, eight bits a pass — one pass up to 256
// shards, two up to MaxShards — with its counters on the stack. The caller
// walks the result with run and hands it back with ungroup.
func (s *Sharded) group(items [][]byte) *grouping {
	g := s.checkout()
	n := len(items)
	g.shard, g.digest, g.order = resized(g.shard, n), resized(g.digest, n), resized(g.order, n)
	for i, it := range items {
		si, d := s.place.Route(it)
		g.shard[i], g.digest[i] = uint16(si), d
	}
	buckets := min(len(s.shards), 256)
	radixPass(g.order, nil, g.shard, 0, buckets)
	if len(s.shards) > 256 {
		g.tmp = resized(g.tmp, n)
		radixPass(g.tmp, g.order, g.shard, 8, len(s.shards)>>8)
		g.order, g.tmp = g.tmp, g.order
	}
	return g
}

// resized returns s with length n and unspecified contents, reallocated
// only when its capacity is short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// radixPass is one stable counting-sort pass: it writes to dst the positions
// listed in src (0, 1, 2, … when src is nil) ordered by bits [shift,
// shift+8) of their shard number, which takes values below buckets.
func radixPass(dst, src []int, shard []uint16, shift uint, buckets int) {
	var next [256]int
	for _, sh := range shard {
		next[byte(sh>>shift)]++
	}
	sum := 0
	for b, c := range next[:buckets] {
		next[b], sum = sum, sum+c
	}
	for i := range dst {
		pos := i
		if src != nil {
			pos = src[i]
		}
		b := byte(shard[pos] >> shift)
		dst[next[b]] = pos
		next[b]++
	}
}

// run returns the shard of the item visited lo-th and the positions of the
// items of that shard that follow it in g.order, up to one window of them;
// the rest of a longer run is what the next call returns.
func (g *grouping) run(lo int) (shard int, positions []int) {
	sh := g.shard[g.order[lo]]
	hi, end := lo+1, min(lo+deriveWindow, len(g.order))
	for hi < end && g.shard[g.order[hi]] == sh {
		hi++
	}
	return int(sh), g.order[lo:hi]
}

// ungroup returns g to the pool unless one oversized batch grew it.
func (s *Sharded) ungroup(g *grouping) {
	if cap(g.shard) <= maxPooledGrouping {
		s.groupings.Put(g)
	}
}

// Generation returns the store's mutation counter: the sum of effective
// adds, accepted removals and restores across shards. It is monotone under
// serving traffic, so equal generations mean an unchanged filter — the
// digest endpoint's ETag basis, letting peers skip refetching an unchanged
// digest. It resets on restart (a recovered store recounts from its
// replay), which is why the ETag folds in the per-boot etagSalt. (Shards
// are read one at a time, so a racing mutation may or may not be counted;
// either answer is a generation the store passed through.)
func (s *Sharded) Generation() uint64 {
	var g uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		g += sh.muts
		sh.mu.RUnlock()
	}
	return g
}

// Count implements core.Filter: net insertions across shards.
func (s *Sharded) Count() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.backend.Count()
		sh.mu.RUnlock()
	}
	return n
}

// lockAll write-locks every shard in index order — the stop-the-world
// moment compaction and restore use to get a true atomic cut (no mutation
// can be between "applied" and "journaled" while all locks are held).
func (s *Sharded) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

// unlockAll releases lockAll.
func (s *Sharded) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// Variant returns the backend variant.
func (s *Sharded) Variant() Variant { return s.variant }

// Mode returns the serving mode.
func (s *Sharded) Mode() Mode { return s.mode }

// Seed returns the public naive-mode seed (meaningless in hardened mode).
func (s *Sharded) Seed() uint64 { return s.seed }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// K returns the per-item index count.
func (s *Sharded) K() int { return s.k }

// ShardBits returns each shard's size in positions (bits or counters).
func (s *Sharded) ShardBits() uint64 { return s.mShard }

// CounterWidth returns the counter width in bits (0 for bloom shards).
func (s *Sharded) CounterWidth() int { return s.width }

// OverflowPolicy returns the counting overflow policy (0 for bloom shards).
func (s *Sharded) OverflowPolicy() core.OverflowPolicy { return s.policy }

// storageBits returns the store's total filter storage in bits
// (shards × shard_bits × counter width) — what the registry charges against
// its aggregate budget. A live store's product cannot wrap: memory that
// large could never have been allocated.
func (s *Sharded) storageBits() uint64 {
	width := uint64(1)
	if s.width > 0 {
		width = uint64(s.width)
	}
	return uint64(len(s.shards)) * s.mShard * width
}

// ShardStats is one shard's snapshot inside Stats.
type ShardStats struct {
	Shard  int     `json:"shard"`
	Count  uint64  `json:"count"`
	Weight uint64  `json:"weight"`
	Fill   float64 `json:"fill"`
	FPR    float64 `json:"estimated_fpr"`
	// Overflows counts counter-overflow events (counting shards only).
	Overflows uint64 `json:"overflows,omitempty"`
}

// Stats is a point-in-time snapshot of the whole store. FPR is the mean of
// the per-shard estimates: the keyed router spreads uniform queries evenly,
// so a random query's false-positive probability is the shard average.
type Stats struct {
	Variant   string       `json:"variant"`
	Mode      string       `json:"mode"`
	Shards    int          `json:"shards"`
	K         int          `json:"k"`
	ShardBits uint64       `json:"shard_bits"`
	Count     uint64       `json:"count"`
	Weight    uint64       `json:"weight"`
	Fill      float64      `json:"fill"`
	FPR       float64      `json:"estimated_fpr"`
	Overflows uint64       `json:"overflows,omitempty"`
	PerShard  []ShardStats `json:"per_shard"`
}

// Stats snapshots every shard in O(shards): weights are tracked
// incrementally at insertion/removal time, so no shard holds its lock for an
// O(m) scan. Shards are locked one at a time, so the snapshot is per-shard
// consistent but not a global atomic cut — fine for monitoring, which is its
// purpose.
func (s *Sharded) Stats() Stats {
	st := Stats{
		Variant:   s.variant.String(),
		Mode:      s.mode.String(),
		Shards:    len(s.shards),
		K:         s.k,
		ShardBits: s.mShard,
		PerShard:  make([]ShardStats, len(s.shards)),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		count, weight := sh.backend.Count(), sh.weight
		var overflows uint64
		if or, ok := sh.backend.(overflowReporter); ok {
			overflows = or.Overflows()
		}
		sh.mu.RUnlock()
		ss := ShardStats{
			Shard:     i,
			Count:     count,
			Weight:    weight,
			Fill:      float64(weight) / float64(s.mShard),
			FPR:       core.FPForgeryProbability(s.mShard, s.k, weight),
			Overflows: overflows,
		}
		st.PerShard[i] = ss
		st.Count += ss.Count
		st.Weight += ss.Weight
		st.Overflows += ss.Overflows
	}
	total := float64(s.mShard) * float64(len(s.shards))
	st.Fill = float64(st.Weight) / total
	for _, ss := range st.PerShard {
		st.FPR += ss.FPR
	}
	st.FPR /= float64(len(s.shards))
	return st
}
