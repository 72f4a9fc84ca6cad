package hashes

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"testing"
)

// Layout 1 is a storage format: every data directory, WAL, snapshot and
// digest written before placement layouts had numbers is readable only
// while each key still goes to the same shard and the same bits. This file
// keeps the code that wrote them as the oracle the live code is compared
// against, in two parts that stack:
//
//   - the bits: Recycling as it stood before PR 19 — digest bytes taken
//     apart by a bit reader, then a 64-bit modulo (oracleSum,
//     oracleIndexes), checked against the register slicer for every
//     algorithm by FuzzRecyclingMatchesOracle;
//   - the shard and family: service.Sharded's shardFor, newShardFamily and
//     deriveShardKey as they stood before the placement seam, checked
//     against a v1 Placement by FuzzPlacementV1MatchesOracle. Its hardened
//     family derives indexes with oracleIndexes, so the placement oracle
//     runs no live index code.
//
// It is reference code: do not tidy it.

// oracleSum is Digester.Sum as it stood before PR 19, verbatim.
func oracleSum(d *Digester, dst, item []byte, salt uint32) []byte {
	switch d.alg {
	case MurmurHash32:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], Murmur32(item, salt))
		return append(dst, b[:]...)
	case MurmurHash128:
		var b [16]byte
		h1, h2 := Murmur128(item, uint64(salt))
		binary.BigEndian.PutUint64(b[0:8], h1)
		binary.BigEndian.PutUint64(b[8:16], h2)
		return append(dst, b[:]...)
	case JenkinsOAAT:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], Jenkins32(item, salt))
		return append(dst, b[:]...)
	case FNV1a64:
		f := fnv.New64a()
		var sb [4]byte
		binary.BigEndian.PutUint32(sb[:], salt)
		f.Write(sb[:]) //nolint:errcheck // hash.Hash writes never fail
		f.Write(item)  //nolint:errcheck
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], f.Sum64())
		return append(dst, b[:]...)
	case SipHash24Alg:
		key := d.sipKey
		key.K1 ^= uint64(salt) // salted variants share the secret, differ in K1
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], SipHash24(key, item))
		return append(dst, b[:]...)
	default:
		d.h.Reset()
		binary.BigEndian.PutUint32(d.salt[:], salt)
		d.h.Write(d.salt[:]) //nolint:errcheck
		d.h.Write(item)      //nolint:errcheck
		return d.h.Sum(dst)
	}
}

// oracleIndexes is Recycling.Indexes as it stood before PR 19, verbatim
// apart from taking its digester and geometry as arguments.
func oracleIndexes(d *Digester, k int, m uint64, dst []uint64, item []byte) []uint64 {
	bitsPer := BitsPerIndex(m)
	perDigest := d.Bits() / bitsPer
	var buf []byte
	var salt uint32
	produced := 0
	for produced < k {
		buf = oracleSum(d, buf[:0], item, salt)
		salt++
		br := bitReader{data: buf}
		for i := 0; i < perDigest && produced < k; i++ {
			v := br.take(bitsPer)
			dst = append(dst, v%m)
			produced++
		}
	}
	return dst
}

// bitReader consumes big-endian bit chunks from a digest.
type bitReader struct {
	data []byte
	pos  int // bit offset
}

func (b *bitReader) take(n int) uint64 {
	var v uint64
	for n > 0 {
		byteIdx := b.pos / 8
		avail := 8 - b.pos%8
		use := avail
		if use > n {
			use = n
		}
		chunk := uint64(b.data[byteIdx]>>(avail-use)) & (1<<uint(use) - 1)
		v = v<<uint(use) | chunk
		b.pos += use
		n -= use
	}
	return v
}

// oracleKey is the test-only key every keyed algorithm gets in this file.
var oracleKey = []byte("0123456789abcdef")

// checkAgainstOracle builds alg's recycling family at (k, m) — when the
// digest can hold one index at all — and compares it with the oracle on item.
func checkAgainstOracle(t *testing.T, alg Algorithm, k int, m uint64, item []byte) {
	t.Helper()
	var key []byte
	if alg.Keyed() {
		key = oracleKey
	}
	d, err := NewDigester(alg, key)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Sum(nil, item, 3), oracleSum(d.Clone(), nil, item, 3); !bytes.Equal(got, want) {
		t.Fatalf("%v: Sum = %x, oracle %x", alg, got, want)
	}
	fam, err := NewRecycling(d, k, m)
	if err != nil {
		if BitsPerIndex(m) <= alg.DigestBits() {
			t.Fatalf("%v k=%d m=%d: %v", alg, k, m, err)
		}
		return // digest shorter than one index: no family to compare
	}
	want := oracleIndexes(d.Clone(), k, m, nil, item)
	// Twice through the same family: the second pass runs on whatever
	// scratch the first one left behind.
	for pass := 0; pass < 2; pass++ {
		got := fam.Indexes(nil, item)
		if len(got) != len(want) {
			t.Fatalf("%v k=%d m=%d pass %d: %d indexes, oracle %d", alg, k, m, pass, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v k=%d m=%d item %q pass %d: index %d = %d, oracle %d", alg, k, m, item, pass, i, got[i], want[i])
			}
		}
	}
}

// benchShardSizes are the shard sizes the bench/ workloads run on: the small
// and large naive filters, the hardened churn filter and its block-rounded
// twin.
var benchShardSizes = []uint64{958506, 57510351, 1917012, 1917440}

// oracleSizes is every m the deterministic test walks and the fuzz target is
// seeded with: the degenerate sizes, every power of two with both
// neighbours, and the bench geometries.
func oracleSizes() []uint64 {
	ms := []uint64{1, 2, 3, ^uint64(0)}
	for j := uint(1); j <= 63; j++ {
		ms = append(ms, 1<<j-1, 1<<j, 1<<j+1)
	}
	return append(ms, benchShardSizes...)
}

// TestRecyclingMatchesOracle is the fuzz target's corpus run exhaustively
// over algorithms: all 13, a k on each side of every digest's capacity, and
// every seeded m — including the 4-byte (Murmur-32, Jenkins) and 20-byte
// (SHA-1, HMAC-SHA-1) digests whose length is not a multiple of a 64-bit
// window.
func TestRecyclingMatchesOracle(t *testing.T) {
	items := [][]byte{nil, []byte("a"), []byte("http://example.com/some/page.html")}
	for _, alg := range Algorithms {
		for _, m := range oracleSizes() {
			for _, k := range []int{1, 2, 7, 10, 64} {
				for _, item := range items {
					checkAgainstOracle(t, alg, k, m, item)
				}
			}
		}
	}
}

func FuzzRecyclingMatchesOracle(f *testing.F) {
	for i, m := range oracleSizes() {
		f.Add(uint8(i), uint8(i), m, []byte("http://example.com/some/page.html"))
	}
	for i := range Algorithms {
		f.Add(uint8(i), uint8(6), uint64(1917012), []byte("0123456789abcdef0123456789abcdef"))
		f.Add(uint8(i), uint8(63), uint64(3200), []byte{})
	}
	f.Fuzz(func(t *testing.T, algRaw, kRaw uint8, m uint64, item []byte) {
		if m == 0 {
			m = 1
		}
		alg := Algorithms[int(algRaw)%len(Algorithms)]
		checkAgainstOracle(t, alg, int(kRaw)%64+1, m, item)
	})
}

// TestRecyclingGolden pins literal index values computed with the parent of
// PR 19, so the layout is anchored to numbers and not only to code that
// lives beside the code it checks.
func TestRecyclingGolden(t *testing.T) {
	items := []string{
		"",
		"a",
		"http://example.com/page",
		"0123456789abcdef0123456789abcdef",
		"http://bench.example/k/0000000000000000000042/x",
	}
	// bench's indexKeyHex, the key resp-churn-durable runs under.
	benchKey, err := hex.DecodeString("f0e1d2c3b4a5968778695a4b3c2d1e0f")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		alg  Algorithm
		key  []byte
		k    int
		m    uint64
		want [][]uint64
	}{
		{SipHash24Alg, benchKey, 7, 1917012, [][]uint64{
			{819080, 885405, 466748, 439966, 1699587, 968484, 878037},
			{1230751, 1430908, 363764, 1167830, 5772, 1413631, 197604},
			{1295767, 178450, 863987, 974547, 1562638, 495574, 757922},
			{1319568, 1307646, 1083841, 18371, 438979, 181736, 1763460},
			{31554, 1609101, 410979, 770231, 1204436, 1377232, 1841285},
		}},
		{SHA512, nil, 10, 1 << 24, [][]uint64{
			{15478103, 6888859, 2965528, 2803045, 204884, 12048260, 12228273, 9161563, 14728014, 7398395},
			{7470720, 516321, 14939099, 1899525, 13495460, 10927750, 701883, 1731568, 9892597, 2963002},
			{15572355, 14956249, 7898783, 9242325, 2329174, 16314631, 490282, 9014341, 11998636, 13187591},
			{15445871, 1797723, 7602248, 1407570, 5641147, 4803500, 16264671, 35387, 4159718, 12525677},
			{2651422, 15349745, 14299312, 9721136, 13087586, 8973014, 4843506, 4799197, 4340766, 9184640},
		}},
	}
	for _, c := range cases {
		d, err := NewDigester(c.alg, c.key)
		if err != nil {
			t.Fatal(err)
		}
		fam, err := NewRecycling(d, c.k, c.m)
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range items {
			got := fam.Indexes(nil, []byte(item))
			if len(got) != len(c.want[i]) {
				t.Fatalf("%v item %q: %d indexes, want %d", c.alg, item, len(got), len(c.want[i]))
			}
			for j := range got {
				if got[j] != c.want[i][j] {
					t.Errorf("%v item %q: index %d = %d, want %d", c.alg, item, j, got[j], c.want[i][j])
				}
			}
		}
	}
}

// oracleShardConfig is the slice of service.Config the frozen code read.
type oracleShardConfig struct {
	Hardened  bool
	Shards    int
	HashCount int
	ShardBits uint64
	Seed      uint64
	Key       []byte
	RouteKey  []byte
}

// oracleShardFor is Sharded.shardFor (with the two NewSharded lines that
// built its key and mask), verbatim.
func oracleShardFor(cfg oracleShardConfig, item []byte) int {
	var rk [16]byte
	copy(rk[:], cfg.RouteKey)
	route := SipKeyFromBytes(rk)
	mask := uint64(cfg.Shards - 1)
	return int(SipHash24(route, item) & mask)
}

// oracleShardIndexes is newShardFamily followed by its Indexes, verbatim
// apart from the config type and the hardened family, which is the
// pre-PR-19 oracleIndexes rather than the live Recycling.
func oracleShardIndexes(cfg oracleShardConfig, i int, item []byte) ([]uint64, error) {
	switch cfg.Hardened {
	case false:
		// Every shard shares the one public seed, mirroring how deployed
		// filters (dablooms, Squid) bake a constant into the binary — the
		// property the §6 attacks rely on.
		fam, err := NewDoubleHashing(cfg.HashCount, cfg.ShardBits, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return fam.Indexes(nil, item), nil
	default:
		d, err := NewDigester(SipHash24Alg, oracleDeriveShardKey(cfg.Key, i))
		if err != nil {
			return nil, err
		}
		return oracleIndexes(d, cfg.HashCount, cfg.ShardBits, nil, item), nil
	}
}

// oracleDeriveShardKey is deriveShardKey, verbatim.
func oracleDeriveShardKey(secret []byte, i int) []byte {
	h := sha256.New()
	h.Write(secret)                                                      //nolint:errcheck // hash writes never fail
	h.Write([]byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}) //nolint:errcheck
	return h.Sum(nil)[:16]
}

// checkPlacementV1 compares a v1 Placement with the oracle on one item:
// same shard, same k indexes, through Place and through Route + Indexes.
func checkPlacementV1(t *testing.T, cfg oracleShardConfig, item []byte) {
	t.Helper()
	p, err := NewPlacement(PlacementSpec{
		Layout: LayoutV1, Keyed: cfg.Hardened, Shards: cfg.Shards, K: cfg.HashCount, M: cfg.ShardBits,
		Seed: cfg.Seed, Key: cfg.Key, RouteKey: cfg.RouteKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantShard := oracleShardFor(cfg, item)
	want, err := oracleShardIndexes(cfg, wantShard, item)
	if err != nil {
		t.Fatal(err)
	}
	what := fmt.Sprintf("hardened=%v shards=%d k=%d m=%d item=%x", cfg.Hardened, cfg.Shards, cfg.HashCount, cfg.ShardBits, item)
	shard, got := p.Place(nil, item)
	if shard != wantShard {
		t.Fatalf("%s: shard %d, oracle %d", what, shard, wantShard)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: indexes\n got %v\nwant %v", what, got, want)
	}
	if viaFamily := p.Family(shard).Indexes(nil, item); fmt.Sprint(viaFamily) != fmt.Sprint(want) {
		t.Fatalf("%s: Family(%d).Indexes\n got %v\nwant %v", what, shard, viaFamily, want)
	}
}

// placementGeometry maps fuzz bytes onto the whole range the service
// accepts: shards 1 … 65 536, k 1 … 512, and m anywhere in 1 … 2⁶⁴−1 with
// small, power-of-two and neighbouring sizes all likely.
func placementGeometry(shardsLog uint8, kRaw uint16, mRaw uint64, mShift uint8) (shards, k int, m uint64) {
	shards = 1 << (shardsLog % 17)
	k = int(kRaw%512) + 1
	m = mRaw >> (mShift % 64)
	if m == 0 {
		m = 1
	}
	return shards, k, m
}

func TestPlacementV1MatchesOracle(t *testing.T) {
	key, route := []byte("0123456789abcdef"), []byte("fedcba9876543210")
	sizes := []uint64{1, 2, 3, 7, 8, 9, 3200, 9586, 1<<20 - 1, 1 << 20, 1<<20 + 1, 1917012, 1917440, 57510352, 1 << 33, 1<<63 + 5, 1<<64 - 1}
	for _, hardened := range []bool{false, true} {
		for _, shards := range []int{1, 2, 8, 256, 65536} {
			for _, k := range []int{1, 2, 7, 10, 64, 512} {
				for _, m := range sizes {
					if hardened && shards == 65536 && (k != 7 || m != 1917012) {
						continue // 65 536 key derivations a geometry: one is enough
					}
					cfg := oracleShardConfig{Hardened: hardened, Shards: shards, HashCount: k, ShardBits: m, Seed: 3, Key: key, RouteKey: route}
					for i := 0; i < 6; i++ {
						checkPlacementV1(t, cfg, []byte(fmt.Sprintf("http://h%03d.ex.org/u/a%010x", i*37, i*i*7919)))
					}
					checkPlacementV1(t, cfg, nil)
				}
			}
		}
	}
}

func FuzzPlacementV1MatchesOracle(f *testing.F) {
	f.Add([]byte("item"), false, uint8(3), uint16(6), uint64(1917012), uint8(0), uint64(3), uint64(1), uint64(2))
	f.Add([]byte("http://h123.ex.org/u/a0000012345abcdef"), true, uint8(3), uint16(6), uint64(1917012), uint8(0), uint64(0), uint64(1), uint64(2))
	f.Add([]byte{}, true, uint8(16), uint16(511), uint64(1<<64-1), uint8(0), uint64(9), uint64(1<<63), uint64(0))
	f.Add([]byte("x"), false, uint8(0), uint16(0), uint64(1), uint8(0), uint64(0), uint64(0), uint64(0))
	f.Add([]byte("blocked"), false, uint8(16), uint16(9), uint64(1917440), uint8(0), uint64(1<<63), uint64(5), uint64(7))
	f.Add([]byte("odd"), true, uint8(1), uint16(63), uint64(1<<33+1), uint8(0), uint64(0), uint64(5), uint64(7))
	f.Fuzz(func(t *testing.T, item []byte, hardened bool, shardsLog uint8, kRaw uint16, mRaw uint64, mShift uint8, seed, key, route uint64) {
		shards, k, m := placementGeometry(shardsLog, kRaw, mRaw, mShift)
		if hardened && shards > 256 {
			// One SHA-256 per shard key, per input: keep the fuzzer's
			// throughput. TestPlacementV1MatchesOracle covers 65 536.
			shards = 256
		}
		checkPlacementV1(t, oracleShardConfig{
			Hardened: hardened, Shards: shards, HashCount: k, ShardBits: m, Seed: seed,
			Key:      binary.LittleEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, key), ^key),
			RouteKey: binary.LittleEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, route), ^route),
		}, item)
	})
}
