package service

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"evilbloom/internal/cachedigest"
)

// DefaultFilterName is the registry entry the /v1/* back-compat shim routes
// to; `evilbloom serve` creates it from its command-line flags.
const DefaultFilterName = "default"

// Control-plane limits. The data plane bounds every request (MaxBatch,
// MaxItemLen, MaxBodyBytes); these bound what filter creation may allocate,
// so the unauthenticated control plane cannot be driven into memory
// exhaustion either.
const (
	// MaxFilters caps how many filters one registry holds.
	MaxFilters = 64
	// MaxFilterBits caps one filter's total storage in bits
	// (shards × shard_bits × counter width): 2^33 bits is 1 GiB resident.
	MaxFilterBits = uint64(1) << 33
	// MaxTotalBits caps the aggregate storage across every filter in the
	// registry, reserved and live, so the per-filter limits cannot compose
	// to more memory than a host has (MaxFilters × MaxFilterBits would be
	// 64 GiB): 2^35 bits is 4 GiB resident.
	MaxTotalBits = uint64(1) << 35
)

// Registry errors, matched by the HTTP layer to pick status codes.
var (
	// ErrFilterExists answers creation of a name already in use.
	ErrFilterExists = errors.New("service: filter already exists")
	// ErrFilterNotFound answers operations on an unknown name.
	ErrFilterNotFound = errors.New("service: no such filter")
	// ErrRegistryFull answers creation beyond MaxFilters.
	ErrRegistryFull = errors.New("service: registry is full; delete a filter first")
	// ErrBudgetExhausted answers creation beyond MaxTotalBits.
	ErrBudgetExhausted = errors.New("service: registry storage budget exhausted; delete a filter first")
)

// filterName validates registry names: URL-path-safe, bounded, and unable to
// collide with the fixed /v2 route segments.
var filterName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidFilterName reports whether name is acceptable to Create.
func ValidFilterName(name string) bool { return filterName.MatchString(name) }

// FilterNamePattern returns the filter-name rule as a pattern string, for
// error messages that tell a client what a valid name (or peer label, which
// follows the same rule) looks like.
func FilterNamePattern() string { return filterName.String() }

// Filter is one named entry in a Registry: a Sharded store plus its name.
// The store carries its own (normalized) configuration; secrets stay inside
// it and are never exposed through the registry.
type Filter struct {
	name  string
	store *Sharded
	// bits is the storage charged against the registry budget at creation,
	// refunded on Delete.
	bits uint64
	// persist is the filter's durable store, nil in a memory-only registry.
	persist *Persister
}

// Name returns the registry name.
func (f *Filter) Name() string { return f.name }

// Store returns the underlying sharded store.
func (f *Filter) Store() *Sharded { return f.store }

// Durable reports whether the filter journals to a durable store.
func (f *Filter) Durable() bool { return f.persist != nil }

// Compact forces a snapshot of the filter's current state and starts a
// fresh log segment, bounding recovery time. It fails with ErrNotDurable on
// a memory-only filter.
func (f *Filter) Compact() error {
	if f.persist == nil {
		return ErrNotDurable
	}
	return f.persist.Compact(f.store)
}

// Generation returns the durable store's snapshot generation (0 when the
// filter is memory-only).
func (f *Filter) Generation() uint64 {
	if f.persist == nil {
		return 0
	}
	return f.persist.Generation()
}

// Registry is a concurrency-safe collection of named filter instances, each
// with its own variant, mode, geometry and keys. All mutation is
// coarse-grained (create/delete are rare control-plane operations); item
// traffic takes only the read lock on the way to a filter's own striped
// locks.
type Registry struct {
	mu      sync.RWMutex
	filters map[string]*Filter
	// reserved holds names whose stores are still being built outside the
	// lock: name → the storage bits charged for the reservation. Reserving
	// before building means a request that would lose the name race or
	// breach a limit never reaches allocation, so concurrent PUTs cannot
	// multiply peak memory beyond the caps.
	reserved map[string]uint64
	// bits is the storage charged by live and reserved filters together,
	// bounded by MaxTotalBits.
	bits uint64
	// dataDir, when non-empty, makes the registry durable: every filter
	// owns a directory under it, journals its mutations, and is reopened by
	// OpenDataDir at the next boot. Set once by OpenDataDir before traffic.
	dataDir string
	// sync is the durable registry's fsync policy.
	sync SyncPolicy
	// hook is told when a filter is published and when it is gone; see
	// SetLifecycle. Guarded by mu.
	hook func(name string, live bool)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		filters:  make(map[string]*Filter),
		reserved: make(map[string]uint64),
	}
}

// SetLifecycle installs the registry's one lifecycle hook and calls
// hook(name, true) for every filter already published. From then on
// hook(name, true) runs as each filter is published, while its name is
// still reserved and before it becomes visible, and hook(name, false) runs
// after Delete removes a filter, and for every filter when Close begins;
// Delete and Close return only once the hook has. hook(name, true) runs
// under the registry lock, so that installing the hook and publishing a
// filter cannot interleave: it must not block or call back into the
// registry. A second hook panics: state keyed by filter (the engine's
// budgets and digest mesh) has exactly one owner.
func (r *Registry) SetLifecycle(hook func(name string, live bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hook != nil {
		panic("service: registry already has a lifecycle hook")
	}
	r.hook = hook
	for name := range r.filters {
		hook(name, true)
	}
}

// storageBits resolves a defaulted Config's total filter storage in bits
// (shards × shard_bits × counter width), rejecting any geometry over
// MaxFilterBits. The comparison divides rather than multiplies: a crafted
// shard_bits near 2^64/shards would make the product wrap mod 2^64, slip
// under the cap, and reach allocation. Every factor is positive and bounded
// (withDefaults caps Shards and CounterWidth), so the divisions are safe and
// the returned product cannot overflow.
func (c Config) storageBits() (uint64, error) {
	width := uint64(1)
	if c.Variant == VariantCounting {
		width = uint64(c.CounterWidth)
	}
	if c.ShardBits > MaxFilterBits/uint64(c.Shards)/width {
		return 0, fmt.Errorf("service: filter would need %d shards × %d bits × %d-bit positions of storage, limit %d bits",
			c.Shards, c.ShardBits, width, MaxFilterBits)
	}
	return uint64(c.Shards) * c.ShardBits * width, nil
}

// Create builds a filter from cfg and registers it under name. It fails
// with ErrFilterExists when the name is taken — filters are immutable once
// created; delete and re-create to change configuration — and enforces the
// MaxFilters, MaxFilterBits and MaxTotalBits limits before allocating
// anything: the name and its storage budget are reserved under the lock
// first, then the store is built outside the lock (sizing allocates) and the
// reservation is filled or rolled back.
func (r *Registry) Create(name string, cfg Config) (*Filter, error) {
	bits, err := r.validate(name, &cfg)
	if err != nil {
		return nil, err
	}
	if err := r.reserve(name, bits); err != nil {
		return nil, err
	}
	store, err := NewSharded(cfg)
	if err != nil {
		r.unreserve(name, bits)
		return nil, err
	}
	return r.createReserved(name, store, bits, nil)
}

// CreateFromSnapshot builds a filter from a snapshot envelope read from rd
// and registers it under name — the PUT-with-snapshot-body path. The
// envelope header alone resolves the configuration (naive snapshots only;
// hardened ones carry no keys and are refused with ErrSnapshotMismatch), so
// every registry limit is enforced and the storage budget reserved BEFORE
// the store is built. The payload then streams into the unpublished
// store's words (and, durable, into the file that becomes generation 0):
// one copy of the bits, never the envelope. Any failure, a checksum
// mismatch after the last shard included, discards the store and its
// directory and rolls the reservation back.
func (r *Registry) CreateFromSnapshot(name string, rd io.Reader) (*Filter, error) {
	var (
		bits  uint64 // reserved; never 0 once the header is admitted
		store *Sharded
		gen0  snapshotUpload
	)
	_, _, err := cachedigest.ReadFrame(io.TeeReader(rd, &gen0), false, func(hdr []byte) (func(io.Reader) error, error) {
		cfg, err := SnapshotConfig(hdr)
		if err != nil {
			return nil, err
		}
		b, err := r.validate(name, &cfg)
		if err != nil {
			return nil, err
		}
		if err := r.reserve(name, b); err != nil {
			return nil, err
		}
		bits = b
		if store, err = NewSharded(cfg); err != nil {
			return nil, err
		}
		if r.dataDir != "" {
			if err := gen0.begin(r.filterDir(name), hdr); err != nil {
				return nil, err
			}
		}
		return store.restorer(hdr)
	}, snapshotFrame)
	if err == nil {
		err = gen0.commit()
	}
	if err != nil {
		gen0.abort()
		if bits != 0 {
			r.unreserve(name, bits)
		}
		return nil, err
	}
	return r.createReserved(name, store, bits, nil)
}

// validate resolves cfg in place and returns its storage bits, enforcing
// the per-filter limits — everything creation checks before reserving.
func (r *Registry) validate(name string, cfg *Config) (uint64, error) {
	if !ValidFilterName(name) {
		return 0, fmt.Errorf("service: invalid filter name %q (want %s)", name, filterName)
	}
	// Resolve the geometry first so the size check precedes allocation: a
	// crafted shard_bits or capacity must be rejected, not OOM the server.
	c, err := cfg.withDefaults()
	if err != nil {
		return 0, err
	}
	*cfg = c
	return c.storageBits()
}

// createReserved finishes a creation whose name and budget are reserved and
// whose store is built: initialize its durable directory (snap, when not
// nil, is generation 0; an upload has installed its own) and publish — any
// failure rolls the reservation back, so a failed creation never leaks
// budget (fill-or-rollback).
func (r *Registry) createReserved(name string, store *Sharded, bits uint64, snap []byte) (*Filter, error) {
	f := &Filter{name: name, store: store, bits: bits}
	if r.dataDir != "" {
		p, err := createPersister(r.filterDir(name), store.config(), r.sync, snap)
		if err != nil {
			if !errors.Is(err, errDirInitialized) {
				// Never remove a directory createPersister refused to touch:
				// it belongs to someone else's filter.
				os.RemoveAll(r.filterDir(name)) //nolint:errcheck // best-effort rollback
			}
			r.unreserve(name, bits)
			return nil, err
		}
		store.SetJournal(p)
		f.persist = p
	}
	return r.publish(f), nil
}

// publish makes a reserved filter visible. The hook runs first, under the
// lock: the name is still reserved, so no Delete can race in between and
// orphan a just-started refresh loop (or a just-provisioned accounting
// table), and SetLifecycle sees each filter exactly once.
func (r *Registry) publish(f *Filter) *Filter {
	r.mu.Lock()
	if r.hook != nil {
		r.hook(f.name, true)
	}
	delete(r.reserved, f.name)
	r.filters[f.name] = f
	r.mu.Unlock()
	return f
}

// filterDir returns a filter's directory under the data dir. Filter names
// are ValidFilterName-constrained (no separators, no leading dot), so the
// name is safe as a single path component.
func (r *Registry) filterDir(name string) string {
	return filepath.Join(r.dataDir, name)
}

// reserve claims name and bits of storage budget ahead of the build,
// enforcing every registry limit while nothing has been allocated yet.
func (r *Registry) reserve(name string, bits uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.takenLocked(name); err != nil {
		return err
	}
	if n := len(r.filters) + len(r.reserved); n >= MaxFilters {
		return fmt.Errorf("%w (%d registered)", ErrRegistryFull, n)
	}
	if err := r.chargeLocked(bits); err != nil {
		return err
	}
	r.reserved[name] = bits
	return nil
}

// takenLocked refuses a name held by a live or reserved filter. The caller
// holds r.mu.
func (r *Registry) takenLocked(name string) error {
	_, live := r.filters[name]
	if _, reserved := r.reserved[name]; live || reserved {
		return fmt.Errorf("%w: %q", ErrFilterExists, name)
	}
	return nil
}

// StorageInUse reports the storage budget currently charged — bits held by
// live and reserved filters together — and the number of in-flight
// reservations. Tests assert a failed create rolls both back to zero.
func (r *Registry) StorageInUse() (bits uint64, reservations int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bits, len(r.reserved)
}

// unreserve rolls back a reservation whose build failed.
func (r *Registry) unreserve(name string, bits uint64) {
	r.mu.Lock()
	delete(r.reserved, name)
	r.bits -= bits
	r.mu.Unlock()
}

// chargeLocked adds bits to the registry-wide storage budget, failing when
// the total would exceed MaxTotalBits. The caller holds r.mu. Written
// subtraction-side so no operand can wrap.
func (r *Registry) chargeLocked(bits uint64) error {
	if bits > MaxTotalBits || r.bits > MaxTotalBits-bits {
		return fmt.Errorf("%w: %d bits requested, %d of %d in use",
			ErrBudgetExhausted, bits, r.bits, MaxTotalBits)
	}
	r.bits += bits
	return nil
}

// Adopt registers an already-built store under name — the path `evilbloom
// serve` uses to install its flag-configured default filter. The store's
// storage is charged against the registry budget so later unauthenticated
// creates see an honest total, but the charge is unconditional: the
// operator's store exists already, so refusing it here would protect
// nothing and fail startup after the allocation. An adopted store over
// MaxTotalBits simply leaves no budget for unauthenticated creation.
func (r *Registry) Adopt(name string, store *Sharded) (*Filter, error) {
	if !ValidFilterName(name) {
		return nil, fmt.Errorf("service: invalid filter name %q (want %s)", name, filterName)
	}
	// Reserve the name, charging the budget unconditionally, before any
	// durable side effect, so a taken or racing name is turned away while
	// nothing exists to roll back — the same order Create uses, and what
	// keeps the rollback paths from ever touching a live filter's directory.
	bits := store.storageBits()
	r.mu.Lock()
	err := r.takenLocked(name)
	if err == nil {
		r.reserved[name] = bits
		r.bits += bits
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var snap []byte
	if r.dataDir != "" {
		// The adopted store may already hold state (an operator pre-warms
		// it before serving), so its current snapshot seeds generation 0.
		if snap, err = store.Snapshot(); err != nil {
			r.unreserve(name, bits)
			return nil, err
		}
	}
	return r.createReserved(name, store, bits, snap)
}

// Get returns the filter registered under name.
func (r *Registry) Get(name string) (*Filter, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.filters[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrFilterNotFound, name)
	}
	return f, nil
}

// Delete removes the filter registered under name, refunds its storage
// budget, runs the lifecycle hook (which stops the filter's peer-refresh
// loop and waits for it to exit — no goroutine works for a deleted filter
// once Delete returns) and deletes its durable directory. In-flight
// operations on the filter finish against the orphaned store (a closed
// journal drops their records — the state they mutate is condemned); its
// memory is reclaimed when they drain.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	f, ok := r.filters[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrFilterNotFound, name)
	}
	delete(r.filters, name)
	r.bits -= f.bits
	if f.persist != nil {
		// Keep the name reserved while the directory is torn down outside
		// the lock: a racing re-create of the same name must not build its
		// fresh directory under the RemoveAll below (it gets ErrFilterExists
		// until the teardown finishes).
		r.reserved[name] = 0
	}
	hook := r.hook
	r.mu.Unlock()
	if hook != nil {
		hook(name, false)
	}
	if f.persist != nil {
		f.persist.Close() //nolint:errcheck // directory is removed next
		err := f.persist.remove()
		r.unreserve(name, 0)
		return err
	}
	return nil
}

// OpenDataDir makes the registry durable and adopts every filter already
// persisted under dir: each is rebuilt from its meta configuration, its
// newest restorable snapshot and its surviving log segments, charged
// against the registry limits exactly like a fresh creation (reserve →
// build → fill-or-rollback). A filter that cannot be recovered fails the
// whole open — silently dropping persisted state would defeat the point —
// with every reservation already rolled back. It returns the number of
// filters recovered.
func (r *Registry) OpenDataDir(dir string, policy SyncPolicy) (int, error) {
	if r.dataDir != "" {
		return 0, fmt.Errorf("service: registry already has data dir %s", r.dataDir)
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return 0, err
	}
	r.dataDir = dir
	r.sync = policy
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, e := range entries {
		if !e.IsDir() || !ValidFilterName(e.Name()) {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), metaFileName)); err != nil {
			continue // not a filter directory
		}
		if err := r.loadPersisted(e.Name()); err != nil {
			return loaded, fmt.Errorf("service: recovering filter %q: %w", e.Name(), err)
		}
		loaded++
	}
	return loaded, nil
}

// loadPersisted recovers one filter directory through the registry's
// accounting: the budget is reserved before the store allocates, and any
// recovery failure (corrupt meta, oversized geometry, unrestorable
// snapshot chain) rolls the reservation back.
func (r *Registry) loadPersisted(name string) error {
	p, cfg, err := openPersister(r.filterDir(name), r.sync)
	if err != nil {
		return err
	}
	cfg, err = cfg.withDefaults()
	if err != nil {
		return err
	}
	bits, err := cfg.storageBits()
	if err != nil {
		return err
	}
	if err := r.reserve(name, bits); err != nil {
		return err
	}
	store, err := NewSharded(cfg)
	if err != nil {
		r.unreserve(name, bits)
		return err
	}
	if err := p.Replay(store); err != nil {
		r.unreserve(name, bits)
		return err
	}
	store.SetJournal(p)
	r.publish(&Filter{name: name, store: store, bits: bits, persist: p})
	return nil
}

// Close runs the lifecycle hook for every filter and uninstalls it — so
// every peer-refresh loop has exited before any journal closes — then
// flushes and closes every filter's durable store: the graceful-shutdown
// tail, after the wire planes have drained. The registry stays readable but
// journals no further mutations. It returns the first error.
func (r *Registry) Close() error {
	r.mu.Lock()
	hook := r.hook
	r.hook = nil
	filters := make([]*Filter, 0, len(r.filters))
	for _, f := range r.filters {
		filters = append(filters, f)
	}
	r.mu.Unlock()
	if hook != nil {
		for _, f := range filters {
			hook(f.name, false)
		}
	}
	var first error
	for _, f := range filters {
		if f.persist == nil {
			continue
		}
		if err := f.persist.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// List returns every registered filter, sorted by name.
func (r *Registry) List() []*Filter {
	r.mu.RLock()
	out := make([]*Filter, 0, len(r.filters))
	for _, f := range r.filters {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len returns the number of registered filters.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.filters)
}
