package service

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// Per-filter durable store. Each filter registered in a persistent registry
// owns one directory under the data dir:
//
//	<data-dir>/<name>/
//	    meta.json        the filter's full configuration, secrets included
//	    snap-<gen>.evb   snapshot envelope at generation <gen> (tmp+rename)
//	    wal-<gen>.log    append-only operation log of everything after
//	                     snap-<gen>; torn tails are truncated on replay
//
// Generations chain: boot picks the highest generation whose snapshot
// decodes and restores cleanly (a corrupt snapshot falls back to the
// previous one) and replays every surviving log segment from that
// generation upward — segment g ends at exactly the atomic cut where
// snapshot g+1 was taken, so the chain always reconstructs the full state.
// Compaction keeps the previous generation pair around as the fallback and
// deletes anything older.
//
// Log records are length-prefixed and individually checksummed:
//
//	[4-byte LE length of op+item] [1-byte op] [item bytes] [4-byte IEEE CRC of op+item]
//
// A record that is short, oversized, or fails its CRC marks the torn tail
// of a crashed writer: replay truncates the segment at the record boundary
// and recovers the longest valid prefix.
const (
	metaFileName    = "meta.json"
	snapPrefix      = "snap-"
	snapSuffix      = ".evb"
	walPrefix       = "wal-"
	walSuffix       = ".log"
	walRecordAdd    = byte(1)
	walRecordRemove = byte(2)
	// walMaxRecord bounds a record's op+item length on replay. It is far
	// above MaxItemLen so direct (non-HTTP) embedders with longer items
	// still round-trip, while a corrupt length field cannot drive a
	// gigabyte allocation.
	walMaxRecord = 1 << 20
	// flushInterval paces the background writer under SyncInterval and
	// SyncNever.
	flushInterval = 100 * time.Millisecond
	// flushThreshold force-flushes the in-memory buffer mid-interval so an
	// add-batch storm cannot grow it without bound.
	flushThreshold = 1 << 20
)

// ErrNotDurable answers compaction requests against a filter with no
// durable store (the server was started without -data-dir).
var ErrNotDurable = errors.New("service: filter has no durable store (start the server with -data-dir)")

// errDirInitialized marks a createPersister refusal because the directory
// already belongs to a filter. Rollback paths must not delete such a
// directory — it is someone else's durable state, not theirs to clean up.
var errDirInitialized = errors.New("service: filter dir already initialized")

// SyncPolicy selects when the operation log reaches stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) batches appends in memory and
	// flushes+fsyncs every flushInterval: bounded data loss on power
	// failure, negligible hot-path cost.
	SyncInterval SyncPolicy = iota
	// SyncAlways writes and fsyncs inside every mutation: no loss window,
	// every operation pays a disk round-trip.
	SyncAlways
	// SyncNever writes on the flush interval but never fsyncs; the OS
	// decides when data is durable. Graceful shutdown still flushes and
	// syncs.
	SyncNever
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy resolves "always", "interval" or "never"; the empty string
// is the interval default so flags may omit it.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("service: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// persistedMeta is the meta.json schema: everything needed to rebuild the
// store bit-identically, secrets included — the data directory is the
// server's own trusted storage, with the meta file written 0600.
type persistedMeta struct {
	Version int `json:"version"`
	// Layout is the placement layout. Directories written before layouts
	// had numbers have no such key and are layout 1.
	Layout       hashes.Layout `json:"layout,omitempty"`
	Variant      string        `json:"variant"`
	Mode         string        `json:"mode"`
	Shards       int           `json:"shards"`
	ShardBits    uint64        `json:"shard_bits"`
	HashCount    int           `json:"hash_count"`
	Seed         uint64        `json:"seed"`
	CounterWidth int           `json:"counter_width,omitempty"`
	Overflow     string        `json:"overflow,omitempty"`
	KeyHex       string        `json:"key,omitempty"`
	RouteKeyHex  string        `json:"route_key"`
}

// metaFromConfig flattens a normalized Config for meta.json.
func metaFromConfig(cfg Config) persistedMeta {
	m := persistedMeta{
		Version:     1,
		Layout:      cfg.layout,
		Variant:     cfg.Variant.String(),
		Mode:        cfg.Mode.String(),
		Shards:      cfg.Shards,
		ShardBits:   cfg.ShardBits,
		HashCount:   cfg.HashCount,
		Seed:        cfg.Seed,
		RouteKeyHex: hex.EncodeToString(cfg.RouteKey),
	}
	if cfg.Variant == VariantCounting {
		m.CounterWidth = cfg.CounterWidth
		m.Overflow = cfg.Overflow.String()
	}
	if cfg.Mode == ModeHardened {
		m.KeyHex = hex.EncodeToString(cfg.Key)
	}
	return m
}

// config rebuilds the Config a meta file describes.
func (m persistedMeta) config() (Config, error) {
	if m.Version != 1 {
		return Config{}, fmt.Errorf("service: unsupported meta version %d", m.Version)
	}
	variant, err := ParseVariant(m.Variant)
	if err != nil {
		return Config{}, err
	}
	mode, err := ParseMode(m.Mode)
	if err != nil {
		return Config{}, err
	}
	overflow, err := core.ParseOverflowPolicy(m.Overflow)
	if err != nil {
		return Config{}, err
	}
	if m.Layout == 0 {
		m.Layout = hashes.LayoutV1
	}
	cfg := Config{
		layout:       m.Layout,
		Variant:      variant,
		Mode:         mode,
		Shards:       m.Shards,
		ShardBits:    m.ShardBits,
		HashCount:    m.HashCount,
		Seed:         m.Seed,
		CounterWidth: m.CounterWidth,
		Overflow:     overflow,
	}
	if cfg.RouteKey, err = hex.DecodeString(m.RouteKeyHex); err != nil {
		return Config{}, fmt.Errorf("service: meta route key: %w", err)
	}
	if m.KeyHex != "" {
		if cfg.Key, err = hex.DecodeString(m.KeyHex); err != nil {
			return Config{}, fmt.Errorf("service: meta index key: %w", err)
		}
	}
	return cfg, nil
}

// Persister is one filter's durable store: the buffered, batched journal
// writer plus the snapshot generation machinery. It implements Journal;
// appends arrive from inside shard critical sections, so everything on that
// path is a short in-memory copy under the persister's own mutex (lock
// order is always shard → persister, shared with compaction, so the pair
// cannot deadlock).
type Persister struct {
	dir    string
	policy SyncPolicy

	mu  sync.Mutex
	buf []byte   // encoded records not yet written to wal
	wal *os.File // current segment, wal-<gen>
	gen uint64
	// err is sticky: after the first I/O failure (or Close) the journal
	// drops appends — memory state stays correct, durability is degraded —
	// and the error surfaces on the next Compact/Close.
	err error

	flusher chan struct{} // closed to stop the background flusher
	done    chan struct{} // closed when the flusher exits
}

var _ Journal = (*Persister)(nil)

// createPersister initializes a filter directory for cfg: meta.json, an
// optional initial snapshot (generation 0) and an empty generation-0 log.
// The directory must not already hold a filter.
func createPersister(dir string, cfg Config, policy SyncPolicy, initialSnap []byte) (*Persister, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("service: creating filter dir: %w", err)
	}
	metaPath := filepath.Join(dir, metaFileName)
	if _, err := os.Stat(metaPath); err == nil {
		return nil, fmt.Errorf("%w: %s", errDirInitialized, dir)
	}
	blob, err := json.MarshalIndent(metaFromConfig(cfg), "", "  ")
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(metaPath, blob, 0o600); err != nil {
		return nil, err
	}
	if initialSnap != nil {
		if err := writeFileAtomic(filepath.Join(dir, snapName(0)), initialSnap, 0o600); err != nil {
			return nil, err
		}
	}
	p := &Persister{dir: dir, policy: policy}
	if p.wal, err = os.OpenFile(filepath.Join(dir, walName(0)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600); err != nil {
		return nil, err
	}
	p.startFlusher()
	return p, nil
}

// openPersister reads an existing filter directory's configuration. Replay
// (restore + log) happens separately via Replay once the caller has built
// the store.
func openPersister(dir string, policy SyncPolicy) (*Persister, Config, error) {
	blob, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if err != nil {
		return nil, Config{}, fmt.Errorf("service: reading filter meta: %w", err)
	}
	var m persistedMeta
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, Config{}, fmt.Errorf("service: parsing filter meta: %w", err)
	}
	cfg, err := m.config()
	if err != nil {
		return nil, Config{}, err
	}
	return &Persister{dir: dir, policy: policy}, cfg, nil
}

// Replay rebuilds s from the directory: restore the newest valid snapshot
// (falling back generation by generation when one is corrupt), replay every
// surviving log segment from that generation upward, truncate any torn
// tail, and leave the journal positioned at the end of the newest segment.
// The caller attaches the journal (SetJournal) only after Replay so
// replayed operations are not re-journaled.
func (p *Persister) Replay(s *Sharded) error {
	snaps, wals, err := p.scanGenerations()
	if err != nil {
		return err
	}
	// Newest restorable snapshot wins; every older one is a fallback.
	replayFrom := uint64(0)
	restored := false
	for i := len(snaps) - 1; i >= 0; i-- {
		gen := snaps[i]
		blob, err := os.ReadFile(filepath.Join(p.dir, snapName(gen)))
		if err == nil {
			err = s.Restore(blob)
		}
		if err == nil {
			replayFrom, restored = gen, true
			break
		}
		fmt.Fprintf(os.Stderr, "service: snapshot generation %d unusable (%v); falling back\n", gen, err)
	}
	if !restored && len(snaps) > 0 {
		// Half-restored stores must not serve; with no usable snapshot the
		// chain can still recover only if generation-0 logs survive.
		if len(wals) == 0 || wals[0] != 0 {
			return fmt.Errorf("service: no snapshot generation is restorable and the log chain does not reach generation 0")
		}
	}
	// Replay the log chain. Segments must be contiguous from replayFrom: a
	// gap means lost operations, which is corruption, not a torn tail.
	last := replayFrom
	for _, gen := range wals {
		if gen < replayFrom {
			continue
		}
		if gen != last && gen != last+1 {
			return fmt.Errorf("service: log chain gap: segment %d follows %d", gen, last)
		}
		complete, err := p.replaySegment(s, gen)
		if err != nil {
			return err
		}
		last = gen
		if !complete {
			break // torn tail truncated; later segments cannot exist honestly
		}
	}
	p.gen = last
	if p.wal, err = os.OpenFile(filepath.Join(p.dir, walName(last)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600); err != nil {
		return err
	}
	p.startFlusher()
	return nil
}

// replaySegment applies one log segment to s, truncating at the first
// invalid record. It reports whether the segment was fully valid.
func (p *Persister) replaySegment(s *Sharded, gen uint64) (complete bool, err error) {
	path := filepath.Join(p.dir, walName(gen))
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return true, nil
		}
		return false, err
	}
	off := 0
	for off < len(data) {
		rec, n := decodeRecord(data[off:])
		if n == 0 {
			// Torn tail: keep the longest valid prefix of the crashed write.
			if err := os.Truncate(path, int64(off)); err != nil {
				return false, fmt.Errorf("service: truncating torn log tail: %w", err)
			}
			return false, nil
		}
		switch rec[0] {
		case walRecordAdd:
			s.Add(rec[1:])
		case walRecordRemove:
			// A removal was journaled only after the live filter accepted
			// it, and replay walks the identical state sequence, so it is
			// re-accepted here; a refusal means the chain is inconsistent.
			if ok, err := s.Remove(rec[1:]); err != nil || !ok {
				return false, fmt.Errorf("service: log replay: removal of %q refused (err=%v) — log disagrees with state", rec[1:], err)
			}
		default:
			if err := os.Truncate(path, int64(off)); err != nil {
				return false, fmt.Errorf("service: truncating torn log tail: %w", err)
			}
			return false, nil
		}
		off += n
	}
	return true, nil
}

// decodeRecord parses one framed record from the head of data, returning
// the op+item bytes and the total framed length, or (nil, 0) when the head
// is not a valid complete record.
func decodeRecord(data []byte) ([]byte, int) {
	if len(data) < 4 {
		return nil, 0
	}
	n := binary.LittleEndian.Uint32(data)
	if n < 1 || n > walMaxRecord {
		return nil, 0
	}
	total := 4 + int(n) + 4
	if len(data) < total {
		return nil, 0
	}
	body := data[4 : 4+n]
	if binary.LittleEndian.Uint32(data[4+n:]) != crc32.ChecksumIEEE(body) {
		return nil, 0
	}
	return body, total
}

// JournalAdd implements Journal.
func (p *Persister) JournalAdd(item []byte) { p.append(walRecordAdd, item) }

// JournalRemove implements Journal.
func (p *Persister) JournalRemove(item []byte) { p.append(walRecordRemove, item) }

// append frames one record into the buffer; SyncAlways drains it to disk
// immediately, the others leave it for the flusher (or the size threshold).
func (p *Persister) append(op byte, item []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(1+len(item)))
	bodyAt := len(p.buf)
	p.buf = append(p.buf, op)
	p.buf = append(p.buf, item...)
	p.buf = binary.LittleEndian.AppendUint32(p.buf, crc32.ChecksumIEEE(p.buf[bodyAt:]))
	if p.policy == SyncAlways {
		p.flushLocked(true)
	} else if len(p.buf) >= flushThreshold {
		p.flushLocked(false)
	}
}

// flushLocked writes the buffer to the current segment (and fsyncs when
// sync is set). I/O failures stick in p.err.
//
// The write happens inside the journal's critical section by design: the
// durability ordering requires the record to be on disk (SyncAlways) or
// at least framed into the segment before the mutation becomes visible,
// and p.buf/p.wal have no other guard. evillint treats this function as
// the sanctioned sink — every locked caller is covered by this one
// annotation, while any NEW I/O under a lock still fails the build.
//
//lint:allow nolockednetio WAL durability ordering: the append must hit the segment inside the critical section
func (p *Persister) flushLocked(sync bool) {
	if p.err != nil || len(p.buf) == 0 {
		if sync && p.err == nil && p.wal != nil {
			if err := p.wal.Sync(); err != nil {
				p.err = err
			}
		}
		return
	}
	if _, err := p.wal.Write(p.buf); err != nil {
		p.err = err
		return
	}
	p.buf = p.buf[:0]
	if sync {
		if err := p.wal.Sync(); err != nil {
			p.err = err
		}
	}
}

// startFlusher launches the background writer for the buffered policies.
func (p *Persister) startFlusher() {
	if p.policy == SyncAlways {
		return
	}
	p.flusher = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(flushInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.mu.Lock()
				p.flushLocked(p.policy == SyncInterval)
				p.mu.Unlock()
			case <-p.flusher:
				return
			}
		}
	}()
}

// Compact takes an atomic snapshot of s, installs it as the next
// generation, starts a fresh log segment, and retires everything older than
// the previous generation (which is kept as the corruption fallback). The
// world stops while the snapshot serializes: every shard is write-locked,
// so the snapshot, the old segment's end and the new segment's start are
// one consistent cut.
//
//lint:allow nolockednetio compaction is stop-the-world by contract: the snapshot, segment rotation and retirement must be one cut under every lock
func (p *Persister) Compact(s *Sharded) error {
	s.lockAll()
	defer s.unlockAll()
	blob, err := s.snapshotLocked()
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Complete the old segment first — the fallback chain (previous
	// snapshot + previous segment + new segment) must stay gapless.
	p.flushLocked(true)
	if p.err != nil {
		return fmt.Errorf("service: journal is failed; refusing to compact: %w", p.err)
	}
	newGen := p.gen + 1
	// Order matters for crash- and failure-consistency: the new (empty) log
	// segment must exist before the new snapshot becomes authoritative. If
	// the snapshot landed first and the segment creation failed, journaling
	// would continue into the old segment — which replay skips once a newer
	// snapshot exists — silently dropping every operation after the failed
	// compact. With this order a failure leaves at most a harmless empty
	// segment; replay's chain walks straight through it.
	wal, err := os.OpenFile(filepath.Join(p.dir, walName(newGen)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(p.dir, snapName(newGen)), blob, 0o600); err != nil {
		wal.Close()                                      //nolint:errcheck // discarding the unused segment
		os.Remove(filepath.Join(p.dir, walName(newGen))) //nolint:errcheck
		return err
	}
	p.wal.Close() //nolint:errcheck // already flushed and synced above
	p.wal = wal
	oldGen := p.gen
	p.gen = newGen
	// Retire generations older than the fallback pair.
	if oldGen > 0 {
		for gen := oldGen; gen > 0; gen-- {
			snapGone := os.Remove(filepath.Join(p.dir, snapName(gen-1)))
			walGone := os.Remove(filepath.Join(p.dir, walName(gen-1)))
			if os.IsNotExist(snapGone) && os.IsNotExist(walGone) {
				break
			}
		}
	}
	return nil
}

// Generation returns the current snapshot generation.
func (p *Persister) Generation() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// Err returns the sticky journal error, if any.
func (p *Persister) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Close stops the flusher, drains and fsyncs the buffer, and closes the
// segment. Further appends are dropped. It returns the first I/O error the
// journal ever hit.
//
//lint:allow nolockednetio shutdown path: the final drain and segment close must exclude concurrent appends
func (p *Persister) Close() error {
	if p.flusher != nil {
		close(p.flusher)
		<-p.done
		p.flusher = nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked(true)
	err := p.err
	if p.wal != nil {
		if cerr := p.wal.Close(); err == nil {
			err = cerr
		}
		p.wal = nil
	}
	if p.err == nil {
		p.err = errors.New("service: journal closed")
	}
	return err
}

// remove deletes the filter's directory (after Close) — the Delete path.
func (p *Persister) remove() error {
	return os.RemoveAll(p.dir)
}

// scanGenerations lists the directory's snapshot and log generations in
// ascending order.
func (p *Persister) scanGenerations() (snaps, wals []uint64, err error) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if gen, ok := parseGen(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, gen)
		}
		if gen, ok := parseGen(e.Name(), walPrefix, walSuffix); ok {
			wals = append(wals, gen)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, nil
}

func snapName(gen uint64) string { return fmt.Sprintf("%s%06d%s", snapPrefix, gen, snapSuffix) }
func walName(gen uint64) string  { return fmt.Sprintf("%s%06d%s", walPrefix, gen, walSuffix) }

func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// writeFileAtomic writes data via temp-file + rename + directory sync, so a
// crash leaves either the old file or the new one, never a torn hybrid.
func writeFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup on error paths
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()  //nolint:errcheck // advisory: rename durability
		d.Close() //nolint:errcheck
	}
	return nil
}
