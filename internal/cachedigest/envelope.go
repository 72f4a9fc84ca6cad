package cachedigest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"evilbloom/internal/bitset"
	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// Digest envelope: the wire format a cache digest travels in between
// evilbloom nodes — the §7 exchange lifted out of one process. Like the
// snapshot envelope it is versioned, length-checked and checksummed, but it
// carries a different payload: not the full filter state (counters, secrets,
// insertion bookkeeping) but only the occupancy pattern plus everything a
// *peer* needs to evaluate membership queries against it locally — the index
// placement rule (layout, family, seed, and under layout 1 the shard-routing
// key) and the geometry. That is exactly what Squid ships between siblings:
// the summary, not the cache.
//
//	offset  size  field
//	0       8     magic "EVBDIGE1"
//	8       2     format version (little-endian): the exporter's placement
//	              layout, 1 or 2 (hashes.Layout); same framing under both
//	10      1     index family (1 murmur3 double hashing, 2 MD5-split)
//	11      1     source variant (0 bloom, 1 counting, 2 blocked)
//	12      4     reserved (zero)
//	16      8     generation (source mutation counter, the ETag basis)
//	24      8     index seed (murmur3 family; zero for MD5-split)
//	32      8     shard count
//	40      8     shard size in bits
//	48      8     per-item index count k
//	56      8     source insertion count
//	64      16    shard-routing key (layout 1 with more than one shard;
//	              zero otherwise)
//	80      8     payload length in bytes
//	88      ...   payload: per shard, one bitset blob (8-byte size header
//	              plus ⌈shard_bits/64⌉ packed little-endian words)
//	88+len  4     IEEE CRC-32 of everything before it
//
// All integers are little-endian. The payload length is fully determined by
// the geometry fields, so a decoder size-checks the envelope from the
// 88-byte header before buffering the payload.
//
// The version is the layout id for the reason the snapshot envelope's is: a
// peer that does not know a layout must refuse the digest, not evaluate it
// under another rule and route by the noise.
//
// On secrets: a digest is only exchangeable when a peer can reproduce the
// placement, so the envelope carries the naive family's public seed and,
// under layout 1, the shard-routing key — for a naive filter both already
// effectively public (the paper's threat model). A hardened filter's keyed
// placement never travels; such filters export no digest at all, and an
// envelope claiming an unknown family is rejected as unusable rather than
// guessed at.
const (
	// EnvelopeMagic opens every digest envelope.
	EnvelopeMagic = "EVBDIGE1"
	// EnvelopeHeaderLen is the fixed header size in bytes.
	EnvelopeHeaderLen  = 88
	envelopeTrailerLen = 4
	// MaxEnvelopeBits caps the total digest size a decoder will buffer
	// (matches the service's per-filter storage cap: 2^33 bits = 1 GiB).
	MaxEnvelopeBits = uint64(1) << 33
	// maxEnvelopeShards and maxEnvelopeK mirror the service's structural
	// caps so a crafted header cannot drive large allocations.
	maxEnvelopeShards = 1 << 16
	maxEnvelopeK      = 512
)

// Family identifies the index derivation a digest's receiver must reproduce.
type Family byte

const (
	// FamilyMurmurDouble is unkeyed MurmurHash3 double hashing with a public
	// seed — the service's naive mode.
	FamilyMurmurDouble Family = 1
	// FamilyMD5Split is Squid's scheme: one 128-bit MD5 split into four
	// indexes (k is always 4, shard count always 1).
	FamilyMD5Split Family = 2
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyMurmurDouble:
		return "murmur3-double-hashing"
	case FamilyMD5Split:
		return "md5-split"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Envelope errors, matched by the HTTP layer to pick status codes: corrupt
// envelopes are the sender's transfer problem (400), unusable ones are
// well-formed but cannot be evaluated by a peer (409).
var (
	// ErrEnvelopeCorrupt marks envelopes failing structural validation: bad
	// magic, unknown version, impossible geometry, length or CRC mismatch.
	ErrEnvelopeCorrupt = errors.New("cachedigest: digest envelope corrupt")
	// ErrEnvelopeUnusable marks well-formed envelopes no peer can evaluate
	// items against — an unknown index family (e.g. a keyed scheme whose
	// secrets rightly never travel).
	ErrEnvelopeUnusable = errors.New("cachedigest: digest envelope unusable by a peer")
)

// SourceVariantBlocked is the source-variant byte of a blocked Bloom filter
// (the values mirror the service's Variant enum: 0 bloom, 1 counting,
// 2 blocked). It is the one variant a peer must treat specially: the
// exporter confines an item's k probe bits to the 512-bit block its first
// index selects, so digest evaluation applies core.BlockedPosition to each
// index instead of testing it raw. Bloom and counting digests share plain
// positional semantics.
const SourceVariantBlocked = 2

// EnvelopeInfo is the decoded fixed header of a digest envelope.
type EnvelopeInfo struct {
	// Layout is the exporter's placement layout — the envelope's version
	// field. Zero encodes as layout 1, which is also what every MD5-split
	// digest is (one shard, nothing to route).
	Layout hashes.Layout
	// Family names the index derivation scheme.
	Family Family
	// SourceVariant records the exporting filter's backend (0 bloom,
	// 1 counting, 2 blocked). Bloom and counting digests answer membership
	// identically; a blocked digest is evaluated through the block-local
	// probe mapping (see SourceVariantBlocked).
	SourceVariant byte
	// Generation is the source filter's mutation counter at export time.
	Generation uint64
	// Seed is the murmur3 public seed (zero for MD5-split).
	Seed uint64
	// Shards and ShardBits are the source geometry; the digest has one bit
	// vector per shard.
	Shards    int
	ShardBits uint64
	// K is the per-item index count.
	K int
	// Count is the source filter's net insertion count at export time.
	Count uint64
	// RouteKey keys layout 1's shard selection (zero when Shards is 1 or
	// the layout takes the shard from the index digest).
	RouteKey [16]byte
	// PayloadLen is the payload size in bytes, implied by the geometry.
	PayloadLen uint64
}

// shardBlobLen returns the fixed serialized size of one shard's bit vector.
func (e EnvelopeInfo) shardBlobLen() uint64 {
	return 8 + 8*((e.ShardBits+63)/64)
}

// EnvelopeSize returns the total envelope size in bytes the header implies —
// what a receiver must buffer before decoding.
func (e EnvelopeInfo) EnvelopeSize() int {
	return EnvelopeHeaderLen + int(e.PayloadLen) + envelopeTrailerLen
}

// DecodeEnvelopeInfo validates and decodes the fixed header. Geometry and
// length fields are fully checked — a receiver can size-check and reject an
// envelope from its first EnvelopeHeaderLen bytes, before buffering any
// payload. Family usability is NOT checked here (a relay may forward
// envelopes it cannot evaluate); OpenEnvelope checks it.
func DecodeEnvelopeInfo(hdr []byte) (EnvelopeInfo, error) {
	var e EnvelopeInfo
	if len(hdr) < EnvelopeHeaderLen {
		return e, fmt.Errorf("%w: %d header bytes, need %d", ErrEnvelopeCorrupt, len(hdr), EnvelopeHeaderLen)
	}
	if string(hdr[:8]) != EnvelopeMagic {
		return e, fmt.Errorf("%w: bad magic", ErrEnvelopeCorrupt)
	}
	v := binary.LittleEndian.Uint16(hdr[8:])
	if v > 0xff || !hashes.Layout(v).Known() {
		return e, fmt.Errorf("%w: unsupported envelope version %d", ErrEnvelopeCorrupt, v)
	}
	e = EnvelopeInfo{
		Layout:        hashes.Layout(v),
		Family:        Family(hdr[10]),
		SourceVariant: hdr[11],
		Generation:    binary.LittleEndian.Uint64(hdr[16:]),
		Seed:          binary.LittleEndian.Uint64(hdr[24:]),
		Shards:        int(binary.LittleEndian.Uint64(hdr[32:])),
		ShardBits:     binary.LittleEndian.Uint64(hdr[40:]),
		K:             int(binary.LittleEndian.Uint64(hdr[48:])),
		Count:         binary.LittleEndian.Uint64(hdr[56:]),
		PayloadLen:    binary.LittleEndian.Uint64(hdr[80:]),
	}
	copy(e.RouteKey[:], hdr[64:80])
	if e.SourceVariant > SourceVariantBlocked {
		return e, fmt.Errorf("%w: unknown source variant %d", ErrEnvelopeCorrupt, e.SourceVariant)
	}
	if e.SourceVariant == SourceVariantBlocked && e.ShardBits%core.BlockBits != 0 {
		return e, fmt.Errorf("%w: blocked-source digest with shard size %d not a multiple of %d",
			ErrEnvelopeCorrupt, e.ShardBits, uint64(core.BlockBits))
	}
	if e.Shards < 1 || e.Shards > maxEnvelopeShards || e.Shards&(e.Shards-1) != 0 {
		return e, fmt.Errorf("%w: shard count %d is not a power of two in [1,%d]", ErrEnvelopeCorrupt, e.Shards, maxEnvelopeShards)
	}
	if e.K < 1 || e.K > maxEnvelopeK {
		return e, fmt.Errorf("%w: impossible index count k=%d", ErrEnvelopeCorrupt, e.K)
	}
	// The division-side comparison cannot wrap; it bounds the words the
	// decoder will allocate before the product below is formed.
	if e.ShardBits == 0 || e.ShardBits > MaxEnvelopeBits/uint64(e.Shards) {
		return e, fmt.Errorf("%w: digest would span %d shards × %d bits, limit %d bits",
			ErrEnvelopeCorrupt, e.Shards, e.ShardBits, MaxEnvelopeBits)
	}
	if e.Family == FamilyMD5Split && (e.K != 4 || e.Shards != 1 || e.Seed != 0 || e.Layout != hashes.LayoutV1) {
		return e, fmt.Errorf("%w: MD5-split digests are single-shard, k=4, unseeded, version 1", ErrEnvelopeCorrupt)
	}
	if want := uint64(e.Shards) * e.shardBlobLen(); e.PayloadLen != want {
		return e, fmt.Errorf("%w: payload length %d, geometry implies %d", ErrEnvelopeCorrupt, e.PayloadLen, want)
	}
	return e, nil
}

// EncodeEnvelope serializes one bit vector per shard into a digest envelope
// under info's geometry (PayloadLen is computed, not read).
func EncodeEnvelope(info EnvelopeInfo, shards []*bitset.BitSet) ([]byte, error) {
	if len(shards) != info.Shards {
		return nil, fmt.Errorf("cachedigest: %d shard vectors for a %d-shard envelope", len(shards), info.Shards)
	}
	info.PayloadLen = uint64(info.Shards) * info.shardBlobLen()
	out := make([]byte, EnvelopeHeaderLen, info.EnvelopeSize())
	copy(out, EnvelopeMagic)
	binary.LittleEndian.PutUint16(out[8:], uint16(max(info.Layout, hashes.LayoutV1)))
	out[10] = byte(info.Family)
	out[11] = info.SourceVariant
	binary.LittleEndian.PutUint64(out[16:], info.Generation)
	binary.LittleEndian.PutUint64(out[24:], info.Seed)
	binary.LittleEndian.PutUint64(out[32:], uint64(info.Shards))
	binary.LittleEndian.PutUint64(out[40:], info.ShardBits)
	binary.LittleEndian.PutUint64(out[48:], uint64(info.K))
	binary.LittleEndian.PutUint64(out[56:], info.Count)
	copy(out[64:80], info.RouteKey[:])
	binary.LittleEndian.PutUint64(out[80:], info.PayloadLen)
	for i, bs := range shards {
		if bs.Size() != info.ShardBits {
			return nil, fmt.Errorf("cachedigest: shard %d holds %d bits, geometry says %d", i, bs.Size(), info.ShardBits)
		}
		blob, err := bs.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = append(out, blob...)
	}
	if got, want := uint64(len(out)-EnvelopeHeaderLen), info.PayloadLen; got != want {
		return nil, fmt.Errorf("cachedigest: payload is %d bytes, geometry implies %d", got, want)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out))
	return append(out, crc[:]...), nil
}

// PeerDigest is a decoded digest envelope, ready to answer the receiving
// side of the §7 exchange: "may this item be in the sibling's cache?". It is
// safe for concurrent Test calls.
type PeerDigest struct {
	info EnvelopeInfo
	bits []*bitset.BitSet
	// place is the exporter's own placement rule, rebuilt from the header
	// by the code the exporter placed with; nil for an MD5-split digest,
	// whose one shard is indexed by squid.
	place *hashes.Placement
	squid *hashes.MD5Split
	pool  sync.Pool // of *[]uint64, one item's indexes
}

// OpenEnvelope validates a complete envelope (structure and CRC), rebuilds
// the placement it names, and returns a digest a peer can query locally.
func OpenEnvelope(data []byte) (*PeerDigest, error) {
	info, err := DecodeEnvelopeInfo(data)
	if err != nil {
		return nil, err
	}
	if want := info.EnvelopeSize(); len(data) != want {
		return nil, fmt.Errorf("%w: envelope is %d bytes, header implies %d", ErrEnvelopeCorrupt, len(data), want)
	}
	body := data[:len(data)-envelopeTrailerLen]
	if got, sum := binary.LittleEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: checksum 0x%08x, computed 0x%08x", ErrEnvelopeCorrupt, got, sum)
	}
	d := &PeerDigest{info: info, bits: make([]*bitset.BitSet, info.Shards)}
	switch info.Family {
	case FamilyMurmurDouble:
		d.place, err = hashes.NewPlacement(hashes.PlacementSpec{
			Layout: info.Layout, Shards: info.Shards, K: info.K, M: info.ShardBits,
			Seed: info.Seed, RouteKey: info.RouteKey[:],
		})
	case FamilyMD5Split:
		d.squid, err = hashes.NewMD5Split(info.ShardBits)
	default:
		return nil, fmt.Errorf("%w: unknown index family %d (a keyed family's digest cannot be evaluated remotely)",
			ErrEnvelopeUnusable, byte(info.Family))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvelopeCorrupt, err)
	}
	payload := body[EnvelopeHeaderLen:]
	blobLen := info.shardBlobLen()
	for i := range d.bits {
		bs := &bitset.BitSet{}
		if err := bs.UnmarshalBinary(payload[:blobLen]); err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrEnvelopeCorrupt, i, err)
		}
		if bs.Size() != info.ShardBits {
			return nil, fmt.Errorf("%w: shard %d vector holds %d bits, header says %d",
				ErrEnvelopeCorrupt, i, bs.Size(), info.ShardBits)
		}
		d.bits[i] = bs
		payload = payload[blobLen:]
	}
	return d, nil
}

// Info returns the envelope header the digest was decoded from.
func (d *PeerDigest) Info() EnvelopeInfo { return d.info }

// Generation returns the source filter's mutation counter at export time.
func (d *PeerDigest) Generation() uint64 { return d.info.Generation }

// Bits returns the digest's total size in bits across shards.
func (d *PeerDigest) Bits() uint64 { return uint64(d.info.Shards) * d.info.ShardBits }

// Count returns the source filter's net insertion count at export time.
func (d *PeerDigest) Count() uint64 { return d.info.Count }

// Weight returns the number of set bits across shards.
func (d *PeerDigest) Weight() uint64 {
	var w uint64
	for _, bs := range d.bits {
		w += bs.Weight()
	}
	return w
}

// Test reports whether the exporting filter claimed item at export time —
// the peer-side membership check that decides whether a sibling probe is
// worth a round trip.
func (d *PeerDigest) Test(item []byte) bool {
	buf, _ := d.pool.Get().(*[]uint64)
	if buf == nil {
		buf = new([]uint64)
	}
	si, idx := 0, (*buf)[:0]
	if d.place != nil {
		si, idx = d.place.Place(idx, item)
	} else {
		idx = d.squid.Indexes(idx, item)
	}
	shard, blocked := d.bits[si], d.info.SourceVariant == SourceVariantBlocked
	ok := true
	for _, i := range idx {
		if blocked {
			// A blocked exporter confined the item's bits to the 512-bit
			// block its first index selects; evaluate the digest through the
			// same mapping or every multi-probe lookup would miss.
			i = core.BlockedPosition(idx[0], i)
		}
		if !shard.Test(i) {
			ok = false
			break
		}
	}
	*buf = idx
	d.pool.Put(buf)
	return ok
}

// TestKey is Test over a Squid store key — the (method, URL) form MD5-split
// digests are built from.
func (d *PeerDigest) TestKey(method, url string) bool { return d.Test(Key(method, url)) }

// Envelope exports a Squid digest in the exchange wire format, so an
// in-process §7 simulation and a live evilbloom node speak the same bytes.
// generation is the exporter's mutation counter (Squid's hourly rebuild
// number serves the same role).
func (d *Digest) Envelope(generation uint64) ([]byte, error) {
	return EncodeEnvelope(EnvelopeInfo{
		Family:     FamilyMD5Split,
		Generation: generation,
		Shards:     1,
		ShardBits:  d.M(),
		K:          4,
		Count:      d.bloom.Count(),
	}, []*bitset.BitSet{d.bloom.Bits()})
}
