package cachedigest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"evilbloom/internal/bitset"
)

// Digest deltas: the bandwidth half of the mesh upgrade. A busy proxy's
// digest is megabytes, but between two refresh ticks only a handful of
// 64-bit words actually change — a full envelope every tick re-ships the
// ~99% that didn't. A delta frame carries just the changed words against a
// base generation the receiver has acknowledged (via the ETag it echoed in
// X-Evilbloom-Digest-Have). If the base doesn't match what the receiver
// holds — it missed a tick, the server restarted, the server diffed against
// a different baseline — the apply fails with ErrDeltaGap and the client
// falls back to a full fetch. Deltas are an optimization, never a
// correctness dependency.
//
// Frame layout (little-endian), a sibling of the EVBDIGE1 envelope:
//
//	offset  size  field
//	     0     8  magic "EVBDIGD1"
//	     8     2  version (1)
//	    10     2  reserved (0)
//	    12     4  changed-word count n
//	    16     8  base generation (receiver must hold exactly this)
//	    24     8  new generation
//	    32     8  new insertion count
//	    40     8  total word count (binds the delta to the digest geometry)
//	    48  16*n  records: word index u64, word value u64 — strictly
//	              ascending indexes, each < total word count
//	  48+16n    4  CRC-32 (IEEE) of everything above
//
// Word indexes are global across shards: shard i, word j maps to
// i*wordsPerShard + j with wordsPerShard = ceil(ShardBits/64). Values are
// the receiver's new words wholesale (not XOR masks), so applying is a
// plain overwrite and a replayed delta is idempotent.

const (
	deltaMagic   = "EVBDIGD1"
	deltaVersion = 1
	// DeltaHeaderLen is the fixed delta header size in bytes.
	DeltaHeaderLen  = 48
	deltaRecordLen  = 16
	deltaTrailerLen = 4

	// maxDeltaWords bounds the declared record count before any allocation,
	// mirroring the envelope's MaxEnvelopeBits budget (one record per word).
	maxDeltaWords = MaxEnvelopeBits / 64
)

// ErrDeltaGap marks a structurally valid delta whose base generation does
// not match the digest the receiver holds — recoverable by fetching the
// full envelope, so it is distinct from ErrEnvelopeCorrupt.
var ErrDeltaGap = fmt.Errorf("%w: delta base generation does not match the held digest", ErrEnvelopeUnusable)

// DeltaWord is one changed backing word of a digest.
type DeltaWord struct {
	Index uint64 // global word index: shard*wordsPerShard + word
	Value uint64 // the word's new value, overwriting the old
}

// DeltaInfo is the decoded header of a delta frame.
type DeltaInfo struct {
	BaseGeneration uint64 // generation the receiver must hold
	NewGeneration  uint64 // generation after applying
	NewCount       uint64 // insertion count after applying
	TotalWords     uint64 // word count of the full digest (geometry check)
	Words          int    // number of changed-word records
}

// IsDeltaFrame reports whether data begins with the delta magic — how the
// peer fetch path tells a delta from a full envelope when a server's
// response headers are absent or ambiguous.
func IsDeltaFrame(data []byte) bool {
	return len(data) >= len(deltaMagic) && string(data[:len(deltaMagic)]) == deltaMagic
}

// DeltaSize returns the total frame size implied by info.
func DeltaSize(info DeltaInfo) int {
	return DeltaHeaderLen + deltaRecordLen*info.Words + deltaTrailerLen
}

// EncodeDelta serializes changed words into a delta frame. Words must be
// sorted by ascending index with every index < totalWords; EncodeDelta
// validates both so a malformed frame can never be produced.
func EncodeDelta(info DeltaInfo, words []DeltaWord) ([]byte, error) {
	info.Words = len(words)
	if uint64(len(words)) > maxDeltaWords || info.TotalWords > maxDeltaWords {
		return nil, fmt.Errorf("cachedigest: delta of %d/%d words exceeds the %d-word budget",
			len(words), info.TotalWords, maxDeltaWords)
	}
	out := make([]byte, DeltaSize(info))
	copy(out, deltaMagic)
	binary.LittleEndian.PutUint16(out[8:], deltaVersion)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(words)))
	binary.LittleEndian.PutUint64(out[16:], info.BaseGeneration)
	binary.LittleEndian.PutUint64(out[24:], info.NewGeneration)
	binary.LittleEndian.PutUint64(out[32:], info.NewCount)
	binary.LittleEndian.PutUint64(out[40:], info.TotalWords)
	off := DeltaHeaderLen
	prev := uint64(0)
	for i, w := range words {
		if w.Index >= info.TotalWords {
			return nil, fmt.Errorf("cachedigest: delta word index %d outside %d-word digest", w.Index, info.TotalWords)
		}
		if i > 0 && w.Index <= prev {
			return nil, fmt.Errorf("cachedigest: delta word indexes not strictly ascending at %d", w.Index)
		}
		prev = w.Index
		binary.LittleEndian.PutUint64(out[off:], w.Index)
		binary.LittleEndian.PutUint64(out[off+8:], w.Value)
		off += deltaRecordLen
	}
	binary.LittleEndian.PutUint32(out[off:], crc32.ChecksumIEEE(out[:off]))
	return out, nil
}

// DecodeDeltaInfo parses and validates just the fixed header, so callers can
// size-check a frame before reading records. Like DecodeEnvelopeInfo it
// needs only the first DeltaHeaderLen bytes.
func DecodeDeltaInfo(data []byte) (DeltaInfo, error) {
	var info DeltaInfo
	if len(data) < DeltaHeaderLen {
		return info, fmt.Errorf("%w: %d bytes, delta header needs %d", ErrEnvelopeCorrupt, len(data), DeltaHeaderLen)
	}
	if !IsDeltaFrame(data) {
		return info, fmt.Errorf("%w: bad delta magic %q", ErrEnvelopeCorrupt, data[:len(deltaMagic)])
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != deltaVersion {
		return info, fmt.Errorf("%w: delta version %d", ErrEnvelopeUnusable, v)
	}
	n := binary.LittleEndian.Uint32(data[12:])
	info.BaseGeneration = binary.LittleEndian.Uint64(data[16:])
	info.NewGeneration = binary.LittleEndian.Uint64(data[24:])
	info.NewCount = binary.LittleEndian.Uint64(data[32:])
	info.TotalWords = binary.LittleEndian.Uint64(data[40:])
	if info.TotalWords > maxDeltaWords {
		return info, fmt.Errorf("%w: delta claims %d-word digest, budget is %d", ErrEnvelopeUnusable, info.TotalWords, maxDeltaWords)
	}
	if uint64(n) > info.TotalWords {
		return info, fmt.Errorf("%w: delta claims %d changed words of %d total", ErrEnvelopeCorrupt, n, info.TotalWords)
	}
	info.Words = int(n)
	return info, nil
}

// DecodeDelta parses a complete delta frame, verifying length, CRC, and
// record ordering. It does not check the base generation — that needs the
// receiver's held digest and happens in PeerDigest.ApplyDelta.
func DecodeDelta(data []byte) (DeltaInfo, []DeltaWord, error) {
	info, err := DecodeDeltaInfo(data)
	if err != nil {
		return info, nil, err
	}
	if len(data) != DeltaSize(info) {
		return info, nil, fmt.Errorf("%w: delta frame is %d bytes, header implies %d", ErrEnvelopeCorrupt, len(data), DeltaSize(info))
	}
	body := data[:len(data)-deltaTrailerLen]
	want := binary.LittleEndian.Uint32(data[len(body):])
	if got := crc32.ChecksumIEEE(body); got != want {
		return info, nil, fmt.Errorf("%w: delta CRC mismatch: frame says %08x, payload hashes to %08x", ErrEnvelopeCorrupt, want, got)
	}
	words := make([]DeltaWord, info.Words)
	off := DeltaHeaderLen
	prev := uint64(0)
	for i := range words {
		words[i].Index = binary.LittleEndian.Uint64(data[off:])
		words[i].Value = binary.LittleEndian.Uint64(data[off+8:])
		if words[i].Index >= info.TotalWords {
			return info, nil, fmt.Errorf("%w: delta word index %d outside %d-word digest", ErrEnvelopeCorrupt, words[i].Index, info.TotalWords)
		}
		if i > 0 && words[i].Index <= prev {
			return info, nil, fmt.Errorf("%w: delta word indexes not strictly ascending at %d", ErrEnvelopeCorrupt, words[i].Index)
		}
		prev = words[i].Index
		off += deltaRecordLen
	}
	return info, words, nil
}

// ApplyDelta applies a delta frame to a held digest and returns the
// resulting digest as a NEW PeerDigest — copy-on-write, because held digests
// are tested concurrently by the routing path with no lock (PeerDigest
// immutability is load-bearing in internal/service). The receiver is never
// modified. ErrDeltaGap means the delta was diffed against a generation the
// receiver does not hold (missed tick, restart, divergent baseline); the
// caller recovers by fetching the full envelope.
func (d *PeerDigest) ApplyDelta(frame []byte) (*PeerDigest, error) {
	info, words, err := DecodeDelta(frame)
	if err != nil {
		return nil, err
	}
	if info.BaseGeneration != d.info.Generation {
		return nil, fmt.Errorf("%w: delta base is generation %d, held digest is %d",
			ErrDeltaGap, info.BaseGeneration, d.info.Generation)
	}
	wordsPerShard := (d.info.ShardBits + 63) / 64
	if want := uint64(d.info.Shards) * wordsPerShard; info.TotalWords != want {
		return nil, fmt.Errorf("%w: delta spans %d words, held geometry implies %d",
			ErrEnvelopeUnusable, info.TotalWords, want)
	}
	next := &PeerDigest{
		info:  d.info,
		bits:  make([]*bitset.BitSet, len(d.bits)),
		place: d.place,
		squid: d.squid,
	}
	next.info.Generation = info.NewGeneration
	next.info.Count = info.NewCount
	copy(next.bits, d.bits)
	for _, w := range words {
		shard := int(w.Index / wordsPerShard)
		if next.bits[shard] == d.bits[shard] {
			next.bits[shard] = d.bits[shard].Clone()
		}
		next.bits[shard].SetWord(int(w.Index%wordsPerShard), w.Value)
	}
	return next, nil
}
