package service

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"evilbloom/internal/cachedigest"
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
// deletes anything older. A graceful shutdown (Registry.Close) compacts a
// filter whose live segment holds at least as many bytes as its snapshot
// would, so the next boot restores a snapshot instead of replaying a log
// that costs more; a smaller log is left to replay.
//
// Log records are length-prefixed and individually checksummed:
//
//	[4-byte LE length of op+item] [1-byte op] [item bytes] [4-byte IEEE CRC of op+item]
//
// The store refuses items over MaxItemLen, so no record is longer than
// walMaxRecord. A record that is short, longer than that, or fails its CRC
// marks the torn tail of a crashed writer: replay truncates the newest
// segment at the record boundary and recovers the longest valid prefix.
// Replay streams each segment (readRecords) through one read buffer that
// holds any record, so a boot holds no more of the log than that buffer.
const (
	metaFileName    = "meta.json"
	snapPrefix      = "snap-"
	snapSuffix      = ".evb"
	walPrefix       = "wal-"
	walSuffix       = ".log"
	walRecordAdd    = byte(1)
	walRecordRemove = byte(2)
	// walMaxRecord bounds a record's op+item length: the op and the
	// longest item the store accepts. A longer length field is corrupt.
	walMaxRecord = 1 + MaxItemLen
	// walReadBuffer is the one buffer replay streams a segment through.
	walReadBuffer = 64 << 10
	// flushInterval paces the syncer: at least this often it writes the
	// partly filled chunk too, and under SyncInterval fsyncs.
	flushInterval = 100 * time.Millisecond
	// chunkSize is the journal's unit of buffering: appends frame records
	// into a chunk of this size, and the syncer writes whole chunks.
	chunkSize = 64 << 10
	// maxChunks bounds the pooled chunks one journal holds at once
	// (16 × 64 KiB = 1 MiB); an appender that finds them all in use waits
	// for the syncer.
	maxChunks = 16
)

// A whole record fits both one chunk and the replay buffer.
const _ = uint(min(chunkSize, walReadBuffer) - (4 + walMaxRecord + 4))

// ErrNotDurable answers compaction requests against a filter with no
// durable store (the server was started without -data-dir).
var ErrNotDurable = errors.New("service: filter has no durable store (start the server with -data-dir)")

// errDirInitialized marks a createPersister refusal because the directory
// already belongs to a filter. Rollback paths must not delete such a
// directory — it is someone else's durable state, not theirs to clean up.
var errDirInitialized = errors.New("service: filter dir already initialized")

// SyncPolicy selects when the operation log reaches stable storage. Under
// every policy an append only frames its record into memory; the journal's
// one syncer goroutine writes the records out (see Persister).
type SyncPolicy int

const (
	// SyncInterval (the default) writes full chunks as they fill and
	// writes and fsyncs everything every flushInterval: a crash loses at
	// most the last interval of acknowledged mutations, and nothing waits
	// for the disk.
	SyncInterval SyncPolicy = iota
	// SyncAlways makes every acknowledgement durable: a connection turn
	// that mutated the filter waits in Filter.Commit until its records are
	// written and fsynced, and concurrent turns share one fsync.
	SyncAlways
	// SyncNever writes like SyncInterval but never fsyncs; the OS decides
	// when data is durable. Compaction and graceful shutdown still sync.
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

// Persister is one filter's durable store: the group-commit journal plus
// the snapshot generation machinery. It implements Journal.
//
// Appends arrive from inside shard critical sections (lock order is always
// shard → p.mu), so an append only frames its record into the current
// fixed-size chunk under p.mu and takes the next sequence number: it never
// writes, never fsyncs and never grows a buffer. One syncer goroutine takes
// the sealed chunks — and the partly filled one on its tick or when a turn
// waits in commit — writes them in order with no lock held, fsyncs as the
// policy says, publishes the durable sequence number and returns the
// chunks to a pool of at most maxChunks. An appender that finds every
// chunk in use waits for the syncer. No record is longer than a chunk.
//
// The segment belongs to whoever holds the writer role (claim/release):
// the syncer for one pass, or Compact and Close, which drain the queue
// through the same path (drain) before they rotate or close the segment.
type Persister struct {
	dir    string
	policy SyncPolicy

	mu     sync.Mutex
	signal sync.Cond // on mu: durable advanced, a chunk came back, the writer role was released, or the journal failed
	cur    *chunk    // the chunk appends fill; nil after a seal
	queue  []*chunk  // sealed chunks, in log order, waiting for the syncer
	free   []*chunk  // the pool: empty chunks ready for reuse
	chunks int       // pooled chunks in existence, at most maxChunks
	queued int64     // bytes framed and not yet written
	// seq numbers the records framed so far; durable is the number of the
	// last one written and fsynced. Under SyncAlways they meet at every
	// syncer pass; commit waits on them.
	seq, durable uint64
	waiting      int  // turns in commit waiting for the partly filled chunk
	writing      bool // the writer role is held
	closing      bool // Close has begun: appends are dropped
	gen          uint64
	walLen       int64 // the segment's length: its valid prefix at boot plus every write since
	// err is sticky: after the first I/O failure (or Close) the journal
	// drops appends — memory state stays correct, durability is degraded —
	// commit answers it to every turn still waiting, and it surfaces on
	// the next Compact/Close.
	err error

	// Owned by the writer role.
	wal      *os.File // current segment, wal-<gen>
	unsynced bool     // wal holds writes not yet fsynced
	written  uint64   // sequence number of the last record written
	batch    []*chunk // the chunks one drain writes
	// failNext, when a test sets it, runs before every segment write
	// ("write") and fsync ("sync"), and its error fails that op.
	failNext func(op string) error

	kick chan struct{} // wakes the syncer early: a chunk sealed or a turn waits
	stop chan struct{} // closed to stop the syncer
	done chan struct{} // closed when the syncer exits
}

// chunk is one unit of journal buffering: framed records, whole, in log
// order.
type chunk struct {
	b    []byte
	last uint64 // sequence number of the last record in b
}

// newPersister returns a journal for dir with no segment open yet.
func newPersister(dir string, policy SyncPolicy) *Persister {
	p := &Persister{dir: dir, policy: policy, kick: make(chan struct{}, 1)}
	p.signal.L = &p.mu
	return p
}

var _ Journal = (*Persister)(nil)

// createPersister initializes a filter directory for cfg: meta.json, an
// optional initial snapshot (generation 0) and an empty generation-0 log.
// The directory must not already hold a filter.
func createPersister(dir string, cfg Config, policy SyncPolicy, initialSnap []byte) (*Persister, error) {
	if err := claimDir(dir); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(dir, metaFileName)
	blob, err := json.MarshalIndent(metaFromConfig(cfg), "", "  ")
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(metaPath, blob); err != nil {
		return nil, err
	}
	if initialSnap != nil {
		if err := writeFileAtomic(filepath.Join(dir, snapName(0)), initialSnap); err != nil {
			return nil, err
		}
	}
	p := newPersister(dir, policy)
	if p.wal, err = os.OpenFile(filepath.Join(dir, walName(0)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600); err != nil {
		return nil, err
	}
	p.startSyncer()
	return p, nil
}

// claimDir creates a filter directory, refusing one that holds a filter.
func claimDir(dir string) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("service: creating filter dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, metaFileName)); err == nil {
		return fmt.Errorf("%w: %s", errDirInitialized, dir)
	}
	return nil
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
	return newPersister(dir, policy), cfg, nil
}

// Replay rebuilds s from the directory: restore the newest valid snapshot
// (falling back generation by generation when one is corrupt), replay every
// surviving log segment from that generation upward, truncate a torn tail
// of the newest segment, and leave the journal positioned at its end. A
// read error, or a bad record in any earlier segment, fails the boot and
// truncates nothing.
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
		f, err := os.Open(filepath.Join(p.dir, snapName(gen)))
		if err == nil {
			_, _, err = cachedigest.ReadFrame(f, false, s.restorer, snapshotFrame)
			f.Close() //nolint:errcheck // read-only
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
		// A restore streams, so one refused by its checksum has already
		// written every shard: the log chain replays onto an empty store.
		s.reset()
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
		valid, torn, err := p.replaySegment(s, gen)
		if err != nil {
			return err
		}
		last, p.walLen = gen, valid
		if !torn {
			continue
		}
		// Compact syncs a segment before it opens the next, so only the
		// newest segment can end in a crashed write. A bad record anywhere
		// else is corruption: truncating there and journaling on would
		// replay the later segments after the new operations next boot.
		if gen != wals[len(wals)-1] {
			return fmt.Errorf("service: log segment %s has a bad record at offset %d but later segments follow; refusing to recover", walName(gen), valid)
		}
		// Torn tail: keep the longest valid prefix of the crashed write.
		if err := os.Truncate(filepath.Join(p.dir, walName(gen)), valid); err != nil {
			return fmt.Errorf("service: truncating torn log tail: %w", err)
		}
	}
	p.gen = last
	if p.wal, err = os.OpenFile(filepath.Join(p.dir, walName(last)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600); err != nil {
		return err
	}
	p.startSyncer()
	return nil
}

// replaySegment applies one log segment to s. It reports the byte length
// of the segment's valid prefix and whether a bad record ends it there; an
// I/O error or a refused replay is returned as err.
func (p *Persister) replaySegment(s *Sharded, gen uint64) (valid int64, torn bool, err error) {
	f, err := os.Open(filepath.Join(p.dir, walName(gen)))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer f.Close() //nolint:errcheck // read-only
	return readRecords(f, func(op byte, item []byte) error {
		if op == walRecordAdd {
			s.Add(item)
			return nil
		}
		// A removal was journaled only after the live filter accepted it,
		// and replay walks the identical state sequence, so it is
		// re-accepted here; a refusal means the chain is inconsistent.
		if ok, err := s.Remove(item); err != nil || !ok {
			return fmt.Errorf("service: log replay: removal of %q refused (err=%v) — log disagrees with state", item, err)
		}
		return nil
	})
}

// readRecords streams log records from r through one walReadBuffer-sized
// buffer and calls apply with each valid record's op and item; item is a
// view that is valid only during the call. It returns the byte length of
// the valid prefix, and torn when a bad record — a short header, a length
// of 0 or over walMaxRecord, a short body or CRC, a CRC mismatch or an
// unknown op — ends the stream there. Only io.EOF and io.ErrUnexpectedEOF
// read as a torn tail: any other read error, and any error from apply, is
// returned with torn unset, because a failing disk is not a crashed writer.
func readRecords(r io.Reader, apply func(op byte, item []byte) error) (valid int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, walReadBuffer)
	for {
		hdr, err := br.Peek(4)
		if err == io.EOF && len(hdr) == 0 {
			return valid, false, nil // the stream ends on a record boundary
		}
		if err != nil {
			return readStopped(valid, err)
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		if n < 1 || n > walMaxRecord {
			return valid, true, nil
		}
		// Every record fits the buffer, so it is peeked in place and stays
		// there until it is discarded, after apply returns.
		rec, err := br.Peek(4 + n + 4) // length, op, item and CRC
		if err != nil {
			return readStopped(valid, err)
		}
		body := rec[4 : 4+n]
		if binary.LittleEndian.Uint32(rec[4+n:]) != crc32.ChecksumIEEE(body) ||
			(body[0] != walRecordAdd && body[0] != walRecordRemove) {
			return valid, true, nil
		}
		if err := apply(body[0], body[1:]); err != nil {
			return valid, false, err
		}
		br.Discard(len(rec)) //nolint:errcheck // peeked above
		valid += int64(len(rec))
	}
}

// readStopped ends readRecords at valid on a read error: the end-of-stream
// errors mark a torn tail, every other one is returned.
func readStopped(valid int64, err error) (int64, bool, error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return valid, true, nil
	}
	return valid, false, err
}

// JournalAdds implements Journal.
func (p *Persister) JournalAdds(items [][]byte) { p.append(walRecordAdd, items...) }

// JournalRemove implements Journal.
func (p *Persister) JournalRemove(item []byte) { p.append(walRecordRemove, item) }

// walOpCRC is the CRC-32 IEEE of each record op byte alone, which a
// record's CRC over op and item continues: a table, because a one-byte
// slice handed to crc32 escapes to the heap on every call.
var walOpCRC = [...]uint32{
	walRecordAdd:    crc32.ChecksumIEEE([]byte{walRecordAdd}),
	walRecordRemove: crc32.ChecksumIEEE([]byte{walRecordRemove}),
}

// appendBatch is how many records append frames per hold of p.mu: a batch
// window's worth.
const appendBatch = deriveWindow

// append frames one op record per item into the journal's chunks, in order,
// and returns the last one's sequence number (0 when the journal is failed
// or closed and drops them). It is the one framer: the records' CRC-32s
// are computed first with no lock held, then up to appendBatch records are
// framed under one hold of p.mu. Each item is at most MaxItemLen bytes: the
// store refuses a longer one before journaling.
func (p *Persister) append(op byte, items ...[]byte) (seq uint64) {
	var crcs [appendBatch]uint32
	for len(items) > 0 {
		batch := items[:min(len(items), appendBatch)]
		items = items[len(batch):]
		for i, it := range batch {
			crcs[i] = crc32.Update(walOpCRC[op], crc32.IEEETable, it)
		}
		seq = p.frame(op, batch, &crcs)
	}
	return seq
}

// frame frames items' records, with their CRC-32s crcs, under one hold of
// p.mu, and returns the last one's sequence number (0 when the journal
// drops them).
func (p *Persister) frame(op byte, items [][]byte, crcs *[appendBatch]uint32) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, it := range items {
		n := 4 + 1 + len(it) + 4
		c := p.room(n)
		if c == nil {
			return 0
		}
		b := binary.LittleEndian.AppendUint32(c.b, uint32(1+len(it)))
		b = append(b, op)
		b = append(b, it...)
		c.b = binary.LittleEndian.AppendUint32(b, crcs[i])
		p.queued += int64(n)
		p.seq++
		c.last = p.seq
		if len(c.b) == cap(c.b) {
			p.seal()
		}
	}
	return p.seq
}

// room returns the chunk an n-byte record goes into, sealing the current
// one when the record does not fit, or nil when the journal drops appends.
// n is at most 4+walMaxRecord+4, so any chunk holds the record. With every
// pooled chunk in use it waits for the syncer. The caller holds p.mu.
func (p *Persister) room(n int) *chunk {
	for p.err == nil && !p.closing {
		if c := p.cur; c != nil && cap(c.b)-len(c.b) >= n {
			return c
		}
		p.seal()
		switch {
		case len(p.free) > 0:
			p.cur = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
		case p.chunks < maxChunks:
			p.chunks++
			p.cur = &chunk{b: make([]byte, 0, chunkSize)}
		default:
			p.signal.Wait()
			continue
		}
		return p.cur
	}
	return nil
}

// seal queues the current chunk for the syncer, or returns it to the pool
// when it holds no record. The caller holds p.mu.
func (p *Persister) seal() {
	c := p.cur
	if c == nil {
		return
	}
	p.cur = nil
	if len(c.b) == 0 {
		p.free = append(p.free, c)
		return
	}
	p.queue = append(p.queue, c)
	p.wake()
}

// wake nudges the syncer without blocking; one pending nudge is enough.
func (p *Persister) wake() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// commit waits until every record framed before the call is written and
// fsynced, and answers the journal's error if it failed first. Under
// SyncInterval and SyncNever it returns at once: those policies acknowledge
// before the disk. It is the one wait a connection turn makes, after its
// mutations have released every lock and before it writes a reply.
func (p *Persister) commit() error {
	if p.policy != SyncAlways {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	target := p.seq
	if p.durable >= target {
		return nil
	}
	p.waiting++
	p.wake()
	for p.durable < target && p.err == nil {
		p.signal.Wait()
	}
	p.waiting--
	if p.durable >= target {
		return nil
	}
	return p.err
}

// startSyncer launches the journal's one writer.
func (p *Persister) startSyncer() {
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.runSyncer()
}

// runSyncer writes sealed chunks as they are kicked in, and on every tick
// the partly filled chunk too, fsyncing as the policy says, until stopped.
func (p *Persister) runSyncer() {
	defer close(p.done)
	t := time.NewTicker(flushInterval)
	defer t.Stop()
	for {
		tick := false
		select {
		case <-t.C:
			tick = true
		case <-p.kick:
		case <-p.stop:
			return
		}
		p.claim()
		p.drain(tick, p.policy == SyncAlways || tick && p.policy == SyncInterval)
		p.release()
	}
}

// claim takes the writer role, waiting out another holder.
func (p *Persister) claim() {
	p.mu.Lock()
	for p.writing {
		p.signal.Wait()
	}
	p.writing = true
	p.mu.Unlock()
}

// release gives the writer role back.
func (p *Persister) release() {
	p.mu.Lock()
	p.writing = false
	p.signal.Broadcast()
	p.mu.Unlock()
}

// drain is the one path from the queue to the segment; the caller holds
// the writer role. It takes the sealed chunks — and the partly filled one
// when seal is set or a turn is waiting — writes them in order with no lock
// held, fsyncs when sync is set and anything is unsynced, then publishes:
// the segment length, the durable sequence number (under SyncAlways, or
// once fsynced) and the chunks back to the pool. An I/O failure becomes the
// sticky p.err, and the queued records are dropped with it.
func (p *Persister) drain(seal, sync bool) {
	p.mu.Lock()
	if seal || p.waiting > 0 {
		p.seal()
	}
	batch := append(p.batch[:0], p.queue...)
	clear(p.queue)
	p.queue = p.queue[:0]
	failed := p.err != nil
	p.mu.Unlock()

	var written int64
	var err error
	if !failed {
		for _, c := range batch {
			if err = p.fault("write"); err == nil {
				_, err = p.wal.Write(c.b)
			}
			if err != nil {
				break
			}
			written += int64(len(c.b))
			p.written, p.unsynced = c.last, true
		}
		if err == nil && sync && p.unsynced {
			if err = p.fault("sync"); err == nil {
				err = p.wal.Sync()
			}
			p.unsynced = err != nil
		}
	}

	p.mu.Lock()
	p.walLen += written
	for _, c := range batch {
		p.queued -= int64(len(c.b))
		c.b = c.b[:0]
		p.free = append(p.free, c)
	}
	if err != nil && p.err == nil {
		p.err = err
	}
	if !p.unsynced {
		p.durable = p.written
	}
	p.signal.Broadcast()
	p.mu.Unlock()
	clear(batch)
	p.batch = batch[:0]
}

// fault answers the injected failure for op, if a test set one.
func (p *Persister) fault(op string) error {
	if p.failNext == nil {
		return nil
	}
	return p.failNext(op)
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
	blob, err := s.snapshot(false)
	if err != nil {
		return err
	}
	// Complete the old segment first — the fallback chain (previous
	// snapshot + previous segment + new segment) must stay gapless. Every
	// shard is locked, so nothing is framed behind the drain.
	p.claim()
	defer p.release()
	p.drain(true, true)
	if err := p.Err(); err != nil {
		return fmt.Errorf("service: journal is failed; refusing to compact: %w", err)
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
	if err := writeFileAtomic(filepath.Join(p.dir, snapName(newGen)), blob); err != nil {
		wal.Close()                                      //nolint:errcheck // discarding the unused segment
		os.Remove(filepath.Join(p.dir, walName(newGen))) //nolint:errcheck
		return err
	}
	p.wal.Close() //nolint:errcheck // already drained and synced above
	p.wal = wal
	oldGen := p.gen
	p.mu.Lock()
	p.gen, p.walLen = newGen, 0
	p.mu.Unlock()
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

// logOutweighs reports whether the live segment, queued records included,
// holds at least as many bytes as a snapshot of s: a log byte costs more to
// replay than a snapshot byte to restore, so compacting it never slows the
// next boot. A failed or closed journal never outweighs.
func (p *Persister) logOutweighs(s *Sharded) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err == nil && p.walLen+p.queued >= s.snapshotLen()
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

// Close stops the syncer, drains and fsyncs every framed record through
// the same path, and closes the segment. Further appends are dropped, and
// a turn still waiting in commit is answered. It returns the first I/O
// error the journal ever hit.
//
//lint:allow nolockednetio shutdown path: the segment closes under the journal lock so no drain or commit can see it half closed
func (p *Persister) Close() error {
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	p.mu.Lock()
	p.closing = true
	p.mu.Unlock()
	p.claim()
	defer p.release()
	p.drain(true, true)
	p.mu.Lock()
	defer p.mu.Unlock()
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
	p.signal.Broadcast()
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
// Every file in a filter directory is 0600, os.CreateTemp's mode.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()           //nolint:errcheck
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return err
	}
	return installTemp(tmp, path)
}

// installTemp syncs and closes a complete temp file, renames it over path
// and syncs the directory; on failure the temp file is removed.
func installTemp(tmp *os.File, path string) error {
	defer os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup on error paths
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
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()  //nolint:errcheck // advisory: rename durability
		d.Close() //nolint:errcheck
	}
	return nil
}

// snapshotUpload is the writer an upload is teed into: from begin on, the
// temp file that commit installs as the filter's generation-0 snapshot, so
// that file is the upload byte for byte and never held in memory. A write
// error waits for commit: a failing disk must not read as a corrupt upload.
type snapshotUpload struct {
	dir string   // the filter directory, once begin has claimed it
	f   *os.File // the temp file that becomes snap-0
	err error
}

// begin claims dir and opens the temp file with the envelope header, which
// was read before begin could run.
func (u *snapshotUpload) begin(dir string, hdr []byte) error {
	if err := claimDir(dir); err != nil {
		return err
	}
	u.dir = dir
	var err error
	u.f, err = os.CreateTemp(dir, snapName(0)+".tmp-*")
	u.Write(hdr) //nolint:errcheck // a write error waits for commit
	return err
}

func (u *snapshotUpload) Write(b []byte) (int, error) {
	if u.f != nil && u.err == nil {
		_, u.err = u.f.Write(b)
	}
	return len(b), nil
}

// commit installs the upload as snap-0 (nothing to do when begin never ran).
func (u *snapshotUpload) commit() error {
	if u.f == nil || u.err != nil {
		return u.err
	}
	f := u.f
	u.f = nil
	return installTemp(f, filepath.Join(u.dir, snapName(0)))
}

// abort removes what begin created: the directory, temp file included.
func (u *snapshotUpload) abort() {
	if u.f != nil {
		u.f.Close() //nolint:errcheck
	}
	if u.dir != "" {
		os.RemoveAll(u.dir) //nolint:errcheck // best-effort rollback
	}
}
