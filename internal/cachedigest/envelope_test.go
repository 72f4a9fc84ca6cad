package cachedigest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"evilbloom/internal/bitset"
	"evilbloom/internal/hashes"
	"evilbloom/internal/urlgen"
)

// buildEnvelope returns a valid murmur-family envelope over a small
// two-shard digest with a few bits set.
func buildEnvelope(t *testing.T) ([]byte, EnvelopeInfo) {
	t.Helper()
	info := EnvelopeInfo{
		Family:     FamilyMurmurDouble,
		Generation: 42,
		Seed:       7,
		Shards:     2,
		ShardBits:  128,
		K:          4,
		Count:      3,
	}
	copy(info.RouteKey[:], "0123456789abcdef")
	a, b := bitset.New(128), bitset.New(128)
	a.Set(1)
	a.Set(77)
	b.Set(127)
	env, err := EncodeEnvelope(info, []*bitset.BitSet{a, b})
	if err != nil {
		t.Fatal(err)
	}
	return env, info
}

// reseal recomputes the trailing CRC after a test mutated header or payload
// bytes, so the corruption under test is the only defect in the envelope.
// Finish appends into env's own capacity, overwriting the old CRC.
func reseal(env []byte) {
	EnvelopeFrame.Finish(env[:len(env)-frameCRCLen])
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env, info := buildEnvelope(t)
	d, err := OpenEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Info()
	if got.Family != info.Family || got.Generation != 42 || got.Seed != 7 ||
		got.Shards != 2 || got.ShardBits != 128 || got.K != 4 || got.Count != 3 ||
		got.RouteKey != info.RouteKey {
		t.Errorf("header round trip: got %+v", got)
	}
	if d.Bits() != 256 || d.Weight() != 3 || d.Generation() != 42 {
		t.Errorf("digest shape: bits=%d weight=%d gen=%d", d.Bits(), d.Weight(), d.Generation())
	}
}

// A digest must answer membership exactly like the exporting filter: set an
// item's own index positions in the right shard and Test must claim it —
// under either placement layout, each spelled out here independently of
// hashes.Placement: layout 1 routes by SipHash under the envelope's routing
// key, layout 2 by the top bits of the Murmur-128 half it also indexes with.
func TestEnvelopeTestMatchesFamily(t *testing.T) {
	for _, layout := range []hashes.Layout{0, hashes.LayoutV1, hashes.LayoutV2} {
		t.Run(fmt.Sprint("layout-", layout), func(t *testing.T) { testEnvelopeMatchesFamily(t, layout) })
	}
}

func testEnvelopeMatchesFamily(t *testing.T, layout hashes.Layout) {
	info := EnvelopeInfo{Layout: layout, Family: FamilyMurmurDouble, Seed: 9, Shards: 4, ShardBits: 256, K: 3}
	copy(info.RouteKey[:], "fedcba9876543210")
	shards := make([]*bitset.BitSet, 4)
	for i := range shards {
		shards[i] = bitset.New(256)
	}
	fam, err := hashes.NewDoubleHashing(3, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	route := hashes.SipKeyFromBytes(info.RouteKey)
	gen := urlgen.New(5)
	inserted := make([][]byte, 40)
	for i := range inserted {
		item := gen.Next()
		inserted[i] = item
		shard := shards[hashes.SipHash24(route, item)&3]
		if layout == hashes.LayoutV2 {
			h1, _ := hashes.Murmur128(item, 9)
			shard = shards[h1>>62]
		}
		for _, x := range fam.Indexes(nil, item) {
			shard.Set(x)
		}
	}
	env, err := EncodeEnvelope(info, shards)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Info().Layout, max(layout, hashes.LayoutV1); got != want {
		t.Fatalf("decoded placement layout %d, want %d", got, want)
	}
	for _, item := range inserted {
		if !d.Test(item) {
			t.Fatalf("digest denies inserted item %q", item)
		}
	}
	misses := 0
	for i := 0; i < 200; i++ {
		if !d.Test(gen.Next()) {
			misses++
		}
	}
	if misses == 0 {
		t.Error("digest claims every uninserted item; decode is broken")
	}
}

// Squid digests round-trip through the same envelope, single-shard with the
// MD5-split family.
func TestSquidDigestEnvelopeRoundTrip(t *testing.T) {
	d, err := NewDigest(100)
	if err != nil {
		t.Fatal(err)
	}
	d.Add("GET", "http://a.test/")
	d.Add("GET", "http://b.test/")
	env, err := d.Envelope(3)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := OpenEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Info().Family != FamilyMD5Split || pd.Generation() != 3 || pd.Count() != 2 {
		t.Errorf("squid header: %+v", pd.Info())
	}
	if !pd.TestKey("GET", "http://a.test/") || !pd.TestKey("GET", "http://b.test/") {
		t.Error("digest denies a cached key")
	}
	if pd.Weight() != d.Weight() || pd.Bits() != d.M() {
		t.Errorf("weight/bits mismatch: %d/%d vs %d/%d", pd.Weight(), pd.Bits(), d.Weight(), d.M())
	}
}

// A digest is decoded by the one bit-vector loader snapshots use, so bits
// set past a shard's size — bytes no exporter writes — are corrupt, not
// silently dropped.
func TestEnvelopeRefusesBitsPastShardSize(t *testing.T) {
	d, err := NewDigest(100) // 507 bits: the last word has 5 bits of slack
	if err != nil {
		t.Fatal(err)
	}
	d.Add("GET", "http://a.test/")
	env, err := d.Envelope(3)
	if err != nil {
		t.Fatal(err)
	}
	env[len(env)-5] |= 0x80 // bit 511, the top of the last payload word
	reseal(env)
	if _, err := OpenEnvelope(env); !errors.Is(err, ErrEnvelopeCorrupt) {
		t.Errorf("got %v, want ErrEnvelopeCorrupt", err)
	}
}

// The corruption/mismatch table, mirroring the snapshot envelope tests:
// structural damage must decode to ErrEnvelopeCorrupt, unknown families to
// ErrEnvelopeUnusable, and nothing may be silently accepted.
func TestEnvelopeCorruptionTable(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(env []byte) []byte
		wantErr error
	}{
		{"truncated header", func(e []byte) []byte { return e[:EnvelopeHeaderLen-1] }, ErrEnvelopeCorrupt},
		{"truncated payload", func(e []byte) []byte { return e[:len(e)-9] }, ErrEnvelopeCorrupt},
		{"trailing bytes", func(e []byte) []byte { return append(e, 0) }, ErrEnvelopeCorrupt},
		{"bad magic", func(e []byte) []byte { e[0] ^= 0xff; return e }, ErrEnvelopeCorrupt},
		{"future version", func(e []byte) []byte {
			binary.LittleEndian.PutUint16(e[8:], 99)
			reseal(e)
			return e
		}, ErrEnvelopeCorrupt},
		{"crc flipped", func(e []byte) []byte { e[len(e)-1] ^= 0x01; return e }, ErrEnvelopeCorrupt},
		{"payload bit flipped", func(e []byte) []byte { e[EnvelopeHeaderLen+3] ^= 0x40; return e }, ErrEnvelopeCorrupt},
		{"wrong variant", func(e []byte) []byte {
			e[11] = 9
			reseal(e)
			return e
		}, ErrEnvelopeCorrupt},
		{"zero shards", func(e []byte) []byte {
			binary.LittleEndian.PutUint64(e[32:], 0)
			reseal(e)
			return e
		}, ErrEnvelopeCorrupt},
		{"non-power-of-two shards", func(e []byte) []byte {
			binary.LittleEndian.PutUint64(e[32:], 3)
			reseal(e)
			return e
		}, ErrEnvelopeCorrupt},
		{"oversized geometry", func(e []byte) []byte {
			binary.LittleEndian.PutUint64(e[40:], MaxEnvelopeBits)
			reseal(e)
			return e
		}, ErrEnvelopeCorrupt},
		{"impossible k", func(e []byte) []byte {
			binary.LittleEndian.PutUint64(e[48:], 0)
			reseal(e)
			return e
		}, ErrEnvelopeCorrupt},
		{"payload length lies", func(e []byte) []byte {
			binary.LittleEndian.PutUint64(e[80:], 8)
			reseal(e)
			return e
		}, ErrEnvelopeCorrupt},
		{"md5-split with murmur geometry", func(e []byte) []byte {
			e[10] = byte(FamilyMD5Split) // but two shards and a seed remain
			reseal(e)
			return e
		}, ErrEnvelopeCorrupt},
		{"unknown keyed family", func(e []byte) []byte {
			e[10] = 7
			reseal(e)
			return e
		}, ErrEnvelopeUnusable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, _ := buildEnvelope(t)
			_, err := OpenEnvelope(tc.mutate(env))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got error %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// DecodeEnvelopeInfo alone must reject impossible headers so receivers can
// refuse before buffering a payload.
func TestDecodeEnvelopeInfoSizeChecks(t *testing.T) {
	env, _ := buildEnvelope(t)
	info, err := DecodeEnvelopeInfo(env[:EnvelopeHeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	if n := EnvelopeHeaderLen + int(info.PayloadLen) + frameCRCLen; n != len(env) {
		t.Errorf("header implies %d bytes, envelope is %d bytes", n, len(env))
	}
	huge := append([]byte(nil), env[:EnvelopeHeaderLen]...)
	binary.LittleEndian.PutUint64(huge[32:], 1<<20) // 2^20 shards
	if _, err := DecodeEnvelopeInfo(huge); !errors.Is(err, ErrEnvelopeCorrupt) {
		t.Errorf("oversized shard count accepted: %v", err)
	}
}

// Layout 3 has no unkeyed rule, so a murmur-double digest that says 3
// describes no placement a peer could evaluate: it is refused as corrupt.
func TestEnvelopeLayoutV3IsCorrupt(t *testing.T) {
	info := EnvelopeInfo{Layout: hashes.LayoutV3, Family: FamilyMurmurDouble, Seed: 9, Shards: 1, ShardBits: 256, K: 3}
	env, err := EncodeEnvelope(info, []*bitset.BitSet{bitset.New(256)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEnvelope(env); !errors.Is(err, ErrEnvelopeCorrupt) {
		t.Errorf("opening a murmur-double digest of layout 3: %v, want ErrEnvelopeCorrupt", err)
	}
}
