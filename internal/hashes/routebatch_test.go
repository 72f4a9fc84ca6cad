package hashes

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"evilbloom/internal/cpufeat"
)

// routeBatchItems returns n items drawn from seed whose lengths are mixed
// over 0–maxLen within the batch, each in its own exact-capacity slice.
func routeBatchItems(seed int64, n, maxLen int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	items := make([][]byte, n)
	for i := range items {
		items[i] = make([]byte, rng.Intn(maxLen+1))
		rng.Read(items[i])
	}
	return items
}

// FuzzRouteBatchMatchesRoute holds RouteBatch to Route, shard and both
// digest words, on batches of 1–100 items whose lengths are mixed over
// 0–4096 within one batch, under every layout and mode that places, at
// fuzzed shard counts, keys and Murmur seeds. It runs the scalar path always
// and a placement's eight-lane kernel where the CPU has it (sip128x8 for
// keyed v2 and v3, murmur128x8 for unkeyed v2), so a machine with the
// kernels still covers the fallback and one without skips only the kernel
// half.
func FuzzRouteBatchMatchesRoute(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(47), uint8(3), uint64(1), uint64(2))
	f.Add(int64(2), uint8(100), uint16(4096), uint8(16), uint64(3), uint64(4))
	f.Add(int64(3), uint8(17), uint16(16), uint8(0), uint64(0), uint64(0))
	f.Add(int64(4), uint8(64), uint16(300), uint8(8), uint64(1<<63), uint64(5))
	f.Add(int64(5), uint8(1), uint16(9), uint8(1), uint64(6), uint64(7))
	// key is the unkeyed layouts' Murmur seed too: its two extremes.
	f.Add(int64(6), uint8(40), uint16(40), uint8(3), uint64(0), uint64(8))
	f.Add(int64(7), uint8(40), uint16(40), uint8(3), uint64(math.MaxUint64), uint64(9))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, maxLen uint16, shardsLog uint8, key, route uint64) {
		items := routeBatchItems(seed, int(nRaw)%100+1, int(maxLen)%4097)
		shards := 1 << (shardsLog % 17)
		keyB := binary.LittleEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, key), ^key)
		routeB := binary.LittleEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, route), ^route)
		gotShard := make([]uint16, len(items))
		gotDigest := make([]PlacementDigest, len(items))
		for _, layout := range []Layout{LayoutV1, LayoutV2, LayoutV3} {
			for _, keyed := range []bool{false, true} {
				if !layout.Places(keyed) {
					continue
				}
				// k = 20 at 2¹⁶ bits reads a keyed v2 item's first digest
				// past its first word; k = 3 does not.
				for _, k := range []int{3, 20} {
					p := mustPlacement(t, PlacementSpec{
						Layout: layout, Keyed: keyed, Shards: shards, K: k, M: 1 << 16, Seed: key,
						Key: keyB, RouteKey: routeB,
					})
					for _, kernel := range []bool{false, true} {
						if kernel && p.kernel == noKernel {
							continue
						}
						p.routeBatch(gotShard, gotDigest, items, kernel)
						for i, it := range items {
							wantShard, wantDigest := p.Route(it)
							if int(gotShard[i]) != wantShard || gotDigest[i] != wantDigest {
								t.Fatalf("v%d keyed=%v k=%d shards=%d kernel=%v: item %d (%d bytes) batched to (%d, %x), Route says (%d, %x)",
									layout, keyed, k, shards, kernel, i, len(it), gotShard[i], gotDigest[i], wantShard, wantDigest)
							}
						}
					}
				}
			}
		}
		if !cpufeat.AVX512F || !cpufeat.AVX512DQ {
			t.Skip("no AVX-512F or AVX-512DQ: a kernel half did not run")
		}
	})
}

// TestRouteBatchKernelEdges runs each kernel over the lengths where its lane
// masks change, batched from every start to every end, so lanes share a call
// with items far longer and batches end short of a whole lane group:
// sip128x8 over every length of 0–24 bytes (each word count, each last-block
// size), murmur128x8 over 0–40 (each 16-byte block count up to two, and both
// tail branches, under 8 bytes and from 8 on), both also over 4095 and 4096.
// A call allocates nothing.
func TestRouteBatchKernelEdges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   PlacementSpec
		maxLen int
	}{
		{"sip128x8", PlacementSpec{Layout: LayoutV3, Keyed: true, Shards: 1 << 16, K: 7, M: 1917012, Key: placementKey, RouteKey: placementRoute}, 24},
		{"murmur128x8", PlacementSpec{Layout: LayoutV2, Shards: 1 << 16, K: 7, M: 1917012, Seed: 3}, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustPlacement(t, tc.spec)
			if p.kernel == noKernel {
				t.Skip("this CPU does not run the kernel")
			}
			var items [][]byte
			for n := 0; n <= tc.maxLen; n++ {
				items = append(items, make([]byte, n))
			}
			items = append(items, make([]byte, 4096), make([]byte, 4095))
			for i, it := range items {
				for j := range it {
					it[j] = byte(i*31 + j)
				}
			}
			for start := 0; start < len(items); start++ {
				for end := start + 1; end <= len(items); end++ {
					batch := items[start:end]
					shards, digests := make([]uint16, len(batch)), make([]PlacementDigest, len(batch))
					p.routeBatch(shards, digests, batch, true)
					for i, it := range batch {
						s, d := p.Route(it)
						if int(shards[i]) != s || digests[i] != d {
							t.Fatalf("items[%d:%d] item %d: batched (%d, %x), Route (%d, %x)", start, end, i, shards[i], digests[i], s, d)
						}
					}
				}
			}
			shards, digests := make([]uint16, len(items)), make([]PlacementDigest, len(items))
			if allocs := testing.AllocsPerRun(10, func() { p.RouteBatch(shards, digests, items) }); allocs != 0 {
				t.Fatalf("RouteBatch allocates %v times a call", allocs)
			}
		})
	}
}
