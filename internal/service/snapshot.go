package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// Snapshot envelope: the wire and on-disk format of a whole-store snapshot.
//
// The PR 1/2 snapshot endpoint returned the raw per-shard blobs behind a
// bare shard-count header — no version, no variant, no checksum — so a
// restore could not tell a truncated blob from a complete one, nor a
// counting blob from a bloom one. Every snapshot now travels inside a
// versioned, checksummed envelope (compatibility note: the raw PR 2 format
// is gone; it was never replayable, which is the point of this change):
//
//	offset  size  field
//	0       8     magic "EVBSNAP1"
//	8       2     format version (little-endian): the filter's placement
//	              layout, 1 or 2 (hashes.Layout) — the framing below is the
//	              same under both; what differs is which keys set these bits
//	10      1     variant (0 bloom, 1 counting, 2 blocked)
//	11      1     mode (0 naive, 1 hardened)
//	12      1     counter width in bits (0 for bloom)
//	13      1     overflow policy (core.OverflowPolicy; 0 for bloom)
//	14      2     reserved (zero)
//	16      8     naive index seed (zero in hardened mode)
//	24      8     shard count
//	32      8     shard size in positions
//	40      8     per-item index count k
//	48      8     payload length in bytes
//	56      16    shard-routing key (naive mode under layout 1; zero otherwise)
//	72      ...   payload: per shard, an 8-byte length then the backend blob
//	72+len  4     IEEE CRC-32 of everything before it
//
// All integers are little-endian. The payload length is fully determined by
// the geometry fields, so a decoder can size-check the envelope before
// touching the payload.
//
// The version field doubles as the layout id because a reader that does not
// know a layout cannot use the bits at all: a binary from before layout 2
// refuses a version-2 envelope as corrupt instead of restoring it under the
// wrong rule. An envelope restores only into a filter of its own layout
// (ErrSnapshotMismatch otherwise); uploaded as a new filter it recreates one
// of its own layout, which is how a layout-1 snapshot stays a faithful clone.
//
// On secrets: a naive filter is, per the paper's threat model, a fully
// public implementation — its seed already ships on the info endpoints, and
// per-shard occupancy is meaningless to a restoring party that cannot
// reproduce the shard routing. Under layout 2 the seed is the whole rule;
// under layout 1 routing had its own key, so the envelope carries that too.
// Either way a naive snapshot is a complete, self-contained clone. A hardened
// filter's keys never travel: its envelope is only restorable where the keys
// live — the server's own data directory.
const (
	snapshotMagic      = "EVBSNAP1"
	snapshotHeaderLen  = 72
	snapshotTrailerLen = 4
)

// Snapshot envelope errors, matched by the HTTP layer to pick status codes:
// corrupt envelopes are the client's transfer problem (400), mismatches are
// a conflict with the live filter's immutable configuration (409).
var (
	// ErrSnapshotCorrupt marks envelopes that fail structural validation:
	// bad magic, unknown version, impossible lengths, checksum mismatch.
	ErrSnapshotCorrupt = errors.New("service: snapshot corrupt")
	// ErrSnapshotMismatch marks well-formed envelopes whose placement layout
	// or geometry (variant, mode, shards, shard size, k, counter width,
	// overflow policy or naive seed) does not match the filter being restored.
	ErrSnapshotMismatch = errors.New("service: snapshot does not match filter")
)

// snapshotHeader is the decoded fixed prefix of an envelope.
type snapshotHeader struct {
	layout     hashes.Layout
	variant    Variant
	mode       Mode
	width      int
	overflow   core.OverflowPolicy
	seed       uint64
	shards     int
	shardBits  uint64
	k          int
	payloadLen uint64
	routeKey   [16]byte
}

// headerFor derives the envelope header from a store's configuration.
func (s *Sharded) headerFor(payloadLen int) snapshotHeader {
	h := snapshotHeader{
		layout:     s.cfg.layout,
		variant:    s.variant,
		mode:       s.mode,
		width:      s.width,
		overflow:   s.policy,
		seed:       s.seed,
		shards:     len(s.shards),
		shardBits:  s.mShard,
		k:          s.k,
		payloadLen: uint64(payloadLen),
	}
	if s.mode == ModeNaive && h.layout == hashes.LayoutV1 {
		copy(h.routeKey[:], s.cfg.RouteKey)
	}
	return h
}

// shardBlobLen returns the exact serialized size of one shard backend under
// the header's geometry — the envelope is fully size-determined, so decoders
// reject truncation and padding before touching any state.
func (h snapshotHeader) shardBlobLen() (uint64, error) {
	switch h.variant {
	case VariantBloom, VariantBlocked:
		// A blocked shard serializes exactly like a bloom one (its size is
		// additionally a multiple of 512, which geometry matching enforces
		// against the live filter).
		words := (h.shardBits + 63) / 64
		return 8 + 8 + 8*words, nil // count, bitset size, packed words
	case VariantCounting:
		words := (h.shardBits*uint64(h.width) + 63) / 64
		return 26 + 8*words, nil // width, policy, m, count, overflows, packed words
	default:
		return 0, fmt.Errorf("%w: unknown variant %d", ErrSnapshotCorrupt, int(h.variant))
	}
}

// expectedPayloadLen returns the exact payload size the header implies.
func (h snapshotHeader) expectedPayloadLen() (uint64, error) {
	blob, err := h.shardBlobLen()
	if err != nil {
		return 0, err
	}
	return uint64(h.shards) * (8 + blob), nil
}

// encode serializes the header into the first snapshotHeaderLen bytes of dst.
func (h snapshotHeader) encode(dst []byte) {
	copy(dst, snapshotMagic)
	binary.LittleEndian.PutUint16(dst[8:], uint16(h.layout))
	dst[10] = byte(h.variant)
	dst[11] = byte(h.mode)
	dst[12] = byte(h.width)
	dst[13] = byte(h.overflow)
	dst[14], dst[15] = 0, 0
	binary.LittleEndian.PutUint64(dst[16:], h.seed)
	binary.LittleEndian.PutUint64(dst[24:], uint64(h.shards))
	binary.LittleEndian.PutUint64(dst[32:], h.shardBits)
	binary.LittleEndian.PutUint64(dst[40:], uint64(h.k))
	binary.LittleEndian.PutUint64(dst[48:], h.payloadLen)
	copy(dst[56:72], h.routeKey[:])
}

// decodeSnapshotHeader validates and decodes the fixed prefix. It checks
// structure only; the CRC spans the payload and is verified by
// decodeSnapshot once the whole envelope is in hand.
func decodeSnapshotHeader(hdr []byte) (snapshotHeader, error) {
	var h snapshotHeader
	if len(hdr) < snapshotHeaderLen {
		return h, fmt.Errorf("%w: %d header bytes, need %d", ErrSnapshotCorrupt, len(hdr), snapshotHeaderLen)
	}
	if string(hdr[:8]) != snapshotMagic {
		return h, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	v := binary.LittleEndian.Uint16(hdr[8:])
	if v > 0xff || !hashes.Layout(v).Known() {
		return h, fmt.Errorf("%w: unsupported snapshot version %d", ErrSnapshotCorrupt, v)
	}
	h = snapshotHeader{
		layout:     hashes.Layout(v),
		variant:    Variant(hdr[10]),
		mode:       Mode(hdr[11]),
		width:      int(hdr[12]),
		overflow:   core.OverflowPolicy(hdr[13]),
		seed:       binary.LittleEndian.Uint64(hdr[16:]),
		shards:     int(binary.LittleEndian.Uint64(hdr[24:])),
		shardBits:  binary.LittleEndian.Uint64(hdr[32:]),
		k:          int(binary.LittleEndian.Uint64(hdr[40:])),
		payloadLen: binary.LittleEndian.Uint64(hdr[48:]),
	}
	copy(h.routeKey[:], hdr[56:72])
	if h.shards < 1 || h.shards > MaxShards || h.shardBits == 0 || h.k < 1 || h.k > MaxHashCount {
		return h, fmt.Errorf("%w: impossible geometry (shards=%d, shard_bits=%d, k=%d)",
			ErrSnapshotCorrupt, h.shards, h.shardBits, h.k)
	}
	want, err := h.expectedPayloadLen()
	if err != nil {
		return h, err
	}
	if h.payloadLen != want {
		return h, fmt.Errorf("%w: payload length %d, geometry implies %d", ErrSnapshotCorrupt, h.payloadLen, want)
	}
	return h, nil
}

// decodeSnapshot validates a complete envelope (structure and CRC) and
// returns its header and payload. The payload slice aliases data.
func decodeSnapshot(data []byte) (snapshotHeader, []byte, error) {
	h, err := decodeSnapshotHeader(data)
	if err != nil {
		return h, nil, err
	}
	want := snapshotHeaderLen + int(h.payloadLen) + snapshotTrailerLen
	if len(data) != want {
		return h, nil, fmt.Errorf("%w: envelope is %d bytes, header implies %d", ErrSnapshotCorrupt, len(data), want)
	}
	body := data[:len(data)-snapshotTrailerLen]
	if got, sum := binary.LittleEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); got != sum {
		return h, nil, fmt.Errorf("%w: checksum 0x%08x, computed 0x%08x", ErrSnapshotCorrupt, got, sum)
	}
	return h, body[snapshotHeaderLen:], nil
}

// SnapshotConfig resolves an envelope header into the Config that recreates
// its filter — the PUT-with-snapshot-body path. Only naive-mode snapshots
// are resolvable over the wire: a hardened filter's occupancy is meaningless
// without its server-side keys, which never travel in an envelope, so
// restoring one remotely would produce a filter whose answers are noise.
func SnapshotConfig(hdr []byte) (Config, error) {
	h, err := decodeSnapshotHeader(hdr)
	if err != nil {
		return Config{}, err
	}
	if h.mode == ModeHardened {
		return Config{}, fmt.Errorf("%w: hardened snapshots carry no keys and cannot be restored over the wire (restore from the server's own data directory)", ErrSnapshotMismatch)
	}
	return Config{
		layout:       h.layout,
		Variant:      h.variant,
		Shards:       h.shards,
		ShardBits:    h.shardBits,
		HashCount:    h.k,
		Mode:         h.mode,
		Seed:         h.seed,
		CounterWidth: h.width,
		Overflow:     h.overflow,
		// The routing key travels with layout-1 naive snapshots: the
		// per-shard occupancy is only a faithful clone when items route
		// identically. (Layout 2 ignores it; the zeros are never used.)
		RouteKey: bytes.Clone(h.routeKey[:]),
	}, nil
}

// match checks the header against a live store's immutable configuration.
func (s *Sharded) match(h snapshotHeader) error {
	mine := s.headerFor(int(h.payloadLen))
	switch {
	case h.layout != mine.layout:
		return fmt.Errorf("%w: snapshot placement layout %d, filter uses %d", ErrSnapshotMismatch, h.layout, mine.layout)
	case h.variant != mine.variant:
		return fmt.Errorf("%w: snapshot variant %v, filter is %v", ErrSnapshotMismatch, h.variant, mine.variant)
	case h.mode != mine.mode:
		return fmt.Errorf("%w: snapshot mode %v, filter is %v", ErrSnapshotMismatch, h.mode, mine.mode)
	case h.shards != mine.shards || h.shardBits != mine.shardBits || h.k != mine.k:
		return fmt.Errorf("%w: snapshot geometry %d×%d k=%d, filter is %d×%d k=%d",
			ErrSnapshotMismatch, h.shards, h.shardBits, h.k, mine.shards, mine.shardBits, mine.k)
	case h.width != mine.width:
		return fmt.Errorf("%w: snapshot counter width %d, filter uses %d", ErrSnapshotMismatch, h.width, mine.width)
	case h.overflow != mine.overflow:
		return fmt.Errorf("%w: snapshot overflow policy %v, filter uses %v", ErrSnapshotMismatch, h.overflow, mine.overflow)
	case mine.mode == ModeNaive && h.seed != mine.seed:
		return fmt.Errorf("%w: snapshot seed %d, filter uses %d", ErrSnapshotMismatch, h.seed, mine.seed)
	case mine.mode == ModeNaive && h.routeKey != mine.routeKey:
		return fmt.Errorf("%w: snapshot shard-routing key differs from the filter's", ErrSnapshotMismatch)
	}
	return nil
}

// Snapshot serializes the whole store into a versioned, checksummed envelope
// (see the format comment above). Shards are read-locked one at a time, so
// the result is per-shard consistent rather than a global atomic cut — right
// for backup and digest exchange; the persistence layer's compaction path
// uses the stop-the-world variant instead.
func (s *Sharded) Snapshot() ([]byte, error) {
	return s.snapshot(true)
}

// snapshotLocked is Snapshot for callers already holding every shard's write
// lock (compaction): the result is a true atomic cut.
func (s *Sharded) snapshotLocked() ([]byte, error) {
	return s.snapshot(false)
}

func (s *Sharded) snapshot(lock bool) ([]byte, error) {
	h := s.headerFor(0)
	payloadLen, err := h.expectedPayloadLen()
	if err != nil {
		return nil, err
	}
	out := make([]byte, snapshotHeaderLen, snapshotHeaderLen+int(payloadLen)+snapshotTrailerLen)
	for i := range s.shards {
		sh := &s.shards[i]
		snap, ok := sh.backend.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("service: %v backend of shard %d cannot snapshot", s.variant, i)
		}
		if lock {
			sh.mu.RLock()
		}
		blob, err := snap.Snapshot()
		if lock {
			sh.mu.RUnlock()
		}
		if err != nil {
			return nil, fmt.Errorf("service: snapshotting shard %d: %w", i, err)
		}
		var sz [8]byte
		binary.LittleEndian.PutUint64(sz[:], uint64(len(blob)))
		out = append(out, sz[:]...)
		out = append(out, blob...)
	}
	h.payloadLen = uint64(len(out) - snapshotHeaderLen)
	if h.payloadLen != payloadLen {
		return nil, fmt.Errorf("service: snapshot payload is %d bytes, geometry implies %d", h.payloadLen, payloadLen)
	}
	h.encode(out[:snapshotHeaderLen])
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out))
	return append(out, crc[:]...), nil
}

// Restore overwrites the store's occupancy state from an envelope written by
// Snapshot on a store of identical configuration. The envelope is fully
// validated (structure, checksum, geometry) before any shard is touched;
// after a mid-restore backend failure — reachable only through a blob whose
// inner framing contradicts its own envelope — the store is half-written and
// must be discarded, which is what every caller does. Incremental shard
// weights are recomputed from the restored backends, so stats stay exact.
func (s *Sharded) Restore(data []byte) error {
	h, payload, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	if err := s.match(h); err != nil {
		return err
	}
	s.lockAll()
	defer s.unlockAll()
	for i := range s.shards {
		if len(payload) < 8 {
			return fmt.Errorf("%w: payload exhausted at shard %d", ErrSnapshotCorrupt, i)
		}
		n := binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
		if n > uint64(len(payload)) {
			return fmt.Errorf("%w: shard %d blob claims %d bytes, %d remain", ErrSnapshotCorrupt, i, n, len(payload))
		}
		sh := &s.shards[i]
		snap, ok := sh.backend.(Snapshotter)
		if !ok {
			return fmt.Errorf("service: %v backend of shard %d cannot restore", s.variant, i)
		}
		if err := snap.Restore(payload[:n]); err != nil {
			return fmt.Errorf("service: restoring shard %d: %w", i, err)
		}
		sh.weight = sh.backend.Weight()
		sh.muts++ // a restore is a mutation: digests of this store are stale now
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrSnapshotCorrupt, len(payload))
	}
	return nil
}
