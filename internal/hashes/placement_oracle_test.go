package hashes

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// Layout v1 is a storage format: every data directory, WAL, snapshot and
// digest written before placement layouts had numbers is readable only while
// Placement's v1 rules keep sending each key to the same shard and the same
// bits. This file keeps the code that wrote them — service.Sharded's
// shardFor, newShardFamily and deriveShardKey as they stood before the
// placement seam — as the oracle. It is reference code: do not tidy it.

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

// oracleShardFamily is newShardFamily, verbatim apart from the config type.
func oracleShardFamily(cfg oracleShardConfig, i int) (IndexFamily, error) {
	switch cfg.Hardened {
	case false:
		// Every shard shares the one public seed, mirroring how deployed
		// filters (dablooms, Squid) bake a constant into the binary — the
		// property the §6 attacks rely on.
		return NewDoubleHashing(cfg.HashCount, cfg.ShardBits, cfg.Seed)
	default:
		d, err := NewDigester(SipHash24Alg, oracleDeriveShardKey(cfg.Key, i))
		if err != nil {
			return nil, err
		}
		return NewRecycling(d, cfg.HashCount, cfg.ShardBits)
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
	fam, err := oracleShardFamily(cfg, wantShard)
	if err != nil {
		t.Fatal(err)
	}
	want := fam.Indexes(nil, item)
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
