package hashes

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// The first vectors of the reference implementation's vectors_sip128 table:
// key 00 01 … 0f, input the first n bytes of 00 01 02 ….
func TestSipHash128Vectors(t *testing.T) {
	var kb [16]byte
	for i := range kb {
		kb[i] = byte(i)
	}
	key := SipKeyFromBytes(kb)
	want := []string{
		"a3817f04ba25a8e66df67214c7550293",
		"da87c1d86b99af44347659119b22fc45",
		"8177228da4a45dc7fca38bdef60affe4",
	}
	var in []byte
	for n, w := range want {
		w0, w1 := sipHash128(key, in, true)
		got := hex.EncodeToString(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, w0), w1))
		if got != w {
			t.Errorf("SipHash-2-4-128 of %d bytes = %s, want %s", n, got, w)
		}
		if lazy, zero := sipHash128(key, in, false); lazy != w0 || zero != 0 {
			t.Errorf("first word alone = %#x, %#x; want %#x, 0", lazy, zero, w0)
		}
		in = append(in, byte(n))
	}
}

func placementItem(i int) []byte {
	return []byte(fmt.Sprintf("http://h%03x.ex.org/u/a%010x%x", i*2654435761%4096, i, i*i))
}

var (
	placementKey   = []byte("0123456789abcdef")
	placementRoute = []byte("fedcba9876543210")
)

func mustPlacement(t testing.TB, spec PlacementSpec) *Placement {
	t.Helper()
	p, err := NewPlacement(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlacementValidates(t *testing.T) {
	ok := PlacementSpec{Layout: LayoutV2, Keyed: true, Shards: 8, K: 7, M: 1000, Key: placementKey, RouteKey: placementRoute}
	if _, err := NewPlacement(ok); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*PlacementSpec){
		"layout 0":     func(s *PlacementSpec) { s.Layout = 0 },
		"layout 3":     func(s *PlacementSpec) { s.Layout = 3 },
		"3 shards":     func(s *PlacementSpec) { s.Shards = 3 },
		"0 shards":     func(s *PlacementSpec) { s.Shards = 0 },
		"k 0":          func(s *PlacementSpec) { s.K = 0 },
		"m 0":          func(s *PlacementSpec) { s.M = 0 },
		"short key":    func(s *PlacementSpec) { s.Key = []byte("short") },
		"v1 short key": func(s *PlacementSpec) { s.Layout, s.RouteKey = LayoutV1, nil },
	} {
		spec := ok
		mutate(&spec)
		if _, err := NewPlacement(spec); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// Unkeyed v2 keeps the public Kirsch–Mitzenmacher rule the attack tooling
// inverts: the indexes are DoubleHashing's, and the shard is the top bits of
// the same digest's first half.
func TestPlacementV2NaiveIsDoubleHashing(t *testing.T) {
	for _, m := range []uint64{1, 2, 3200, 1917012, 1917013, 1 << 21, 1<<64 - 1} {
		for _, shards := range []int{1, 8, 65536} {
			p := mustPlacement(t, PlacementSpec{Layout: LayoutV2, Shards: shards, K: 7, M: m, Seed: 9})
			fam, err := NewDoubleHashing(7, m, 9)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				item := placementItem(i)
				shard, got := p.Place(nil, item)
				if want := fam.Indexes(nil, item); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("m=%d: indexes %v, DoubleHashing gives %v", m, got, want)
				}
				h1, _ := Murmur128(item, 9)
				if want := int(h1 >> (64 - uint(bits.TrailingZeros(uint(shards))))); shard != want {
					t.Fatalf("m=%d shards=%d: shard %d, top bits of h1 are %d", m, shards, shard, want)
				}
			}
		}
	}
}

// specV2Hardened reads the keyed v2 rule the slow way, from its written
// definition: digest j is SipHash-2-4-128 under (K0, K1 ⊕ j), spelled w0 then
// w1 big-endian; digest 0 gives log₂(shards) routing bits first; every
// digest gives whole ⌈log₂ m⌉-bit indexes only.
func specV2Hardened(key SipKey, shards, k int, m uint64, item []byte) (int, []uint64) {
	routeBits, b := 0, BitsPerIndex(m)
	for 1<<routeBits < shards {
		routeBits++
	}
	shard, idx := 0, []uint64(nil)
	for j := uint64(0); len(idx) < k; j++ {
		w0, w1 := sipHash128(SipKey{key.K0, key.K1 ^ j}, item, true)
		br := bitReader{data: binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, w0), w1)}
		if j == 0 {
			shard = int(br.take(routeBits))
		}
		for br.pos+b <= 128 && len(idx) < k {
			idx = append(idx, br.take(b)%m)
		}
	}
	return shard, idx
}

func TestPlacementV2HardenedMatchesItsDefinition(t *testing.T) {
	for _, m := range []uint64{1, 2, 3, 3200, 9586, 1917012, 1 << 21, 1<<21 + 1, 1 << 33, 1<<63 + 5, 1<<64 - 1} {
		for _, shards := range []int{1, 2, 8, 65536} {
			for _, k := range []int{1, 2, 5, 6, 7, 10, 64, 512} {
				p := mustPlacement(t, PlacementSpec{Layout: LayoutV2, Keyed: true, Shards: shards, K: k, M: m, Key: placementKey, RouteKey: placementRoute})
				for i := 0; i < 8; i++ {
					item := placementItem(i)
					wantShard, want := specV2Hardened(p.keys[0], shards, k, m, item)
					shard, got := p.Place(nil, item)
					if shard != wantShard || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("m=%d shards=%d k=%d: placed (%d, %v), definition says (%d, %v)", m, shards, k, shard, got, wantShard, want)
					}
					if again := p.Family(3%shards).Indexes(nil, item); fmt.Sprint(again) != fmt.Sprint(want) {
						t.Fatalf("m=%d shards=%d k=%d: Family view gives %v, want %v", m, shards, k, again, want)
					}
				}
			}
		}
	}
}

// The bench geometry's keyed placement is two PRF calls: 3 routing bits and
// five 21-bit indexes from digest 0, two more from the first word of digest 1.
func TestPlacementV2HardenedCallsAtBenchGeometry(t *testing.T) {
	p := mustPlacement(t, PlacementSpec{Layout: LayoutV2, Keyed: true, Shards: 8, K: 7, M: 1917012, Key: placementKey, RouteKey: placementRoute})
	if !p.firstBoth || p.bitsPer != 21 {
		t.Fatalf("firstBoth=%v bitsPer=%d, want true, 21", p.firstBoth, p.bitsPer)
	}
	item := placementItem(1)
	_, got := p.Place(nil, item)
	w0, _ := sipHash128(SipKey{p.keys[0].K0, p.keys[0].K1 ^ 1}, item, false)
	for i, want := range []uint64{w0 >> 43, w0 << 21 >> 43} {
		if want >= 1917012 {
			want -= 1917012
		}
		if got[5+i] != want {
			t.Errorf("index %d = %d, first word of digest 1 gives %d", 5+i, got[5+i], want)
		}
	}
}

// Which secrets move a key: both under keyed v2 (the route key is folded
// into the one PRF key), neither under unkeyed v2, whose whole rule is public.
func TestPlacementV2KeyDependence(t *testing.T) {
	moved := func(a, b *Placement) (shardMoved, indexMoved int) {
		for i := 0; i < 2000; i++ {
			sa, ia := a.Place(nil, placementItem(i))
			sb, ib := b.Place(nil, placementItem(i))
			if sa != sb {
				shardMoved++
			}
			if fmt.Sprint(ia) != fmt.Sprint(ib) {
				indexMoved++
			}
		}
		return
	}
	base := PlacementSpec{Layout: LayoutV2, Keyed: true, Shards: 8, K: 7, M: 1917012, Key: placementKey, RouteKey: placementRoute}
	otherKey, otherRoute := base, base
	otherKey.Key = []byte("another-16b-key!")
	otherRoute.RouteKey = []byte("another-route-k!")
	for name, spec := range map[string]PlacementSpec{"key": otherKey, "route key": otherRoute} {
		s, i := moved(mustPlacement(t, base), mustPlacement(t, spec))
		if s < 1600 || i != 2000 {
			t.Errorf("hardened v2, other %s: %d/2000 shards and %d/2000 index sets moved, want ≈ 1750 and 2000", name, s, i)
		}
	}
	naive := PlacementSpec{Layout: LayoutV2, Shards: 8, K: 7, M: 1917012, Seed: 3, RouteKey: placementRoute}
	naiveOther := naive
	naiveOther.RouteKey = otherRoute.RouteKey
	if s, i := moved(mustPlacement(t, naive), mustPlacement(t, naiveOther)); s != 0 || i != 0 {
		t.Errorf("naive v2 under another route key: %d shards, %d index sets moved, want none", s, i)
	}
	naiveOther.Seed = 4
	if s, i := moved(mustPlacement(t, naive), mustPlacement(t, naiveOther)); s < 1600 || i != 2000 {
		t.Errorf("naive v2 under another seed: %d shards, %d index sets moved, want ≈ 1750 and 2000", s, i)
	}
}

// chi2 returns Pearson's statistic of counts against a uniform expectation.
func chi2(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	want := float64(total) / float64(len(counts))
	var x float64
	for _, c := range counts {
		x += (float64(c) - want) * (float64(c) - want) / want
	}
	return x
}

// chi2Limit bounds the statistic at df degrees of freedom by mean + 10σ. The
// items are fixed, so nothing flakes; the few hundred cells checked below
// reach 6σ by chance (one does, and falls back as n grows), while a rule that
// ties indexes to the shard overshoots by orders of magnitude.
func chi2Limit(df int) float64 { return float64(df) + 10*math.Sqrt(2*float64(df)) }

// A rule that takes the shard from digest bits must not let the shard say
// anything about the indexes inside it. (Taking the shard from the LOW bits
// of h1 while indexing with h1 mod m fails the first-index check on even m:
// inside shard s every first index would be ≡ s modulo gcd(m, shards).)
func TestPlacementV2Uniformity(t *testing.T) {
	const shards, k, n = 8, 7, 60000
	for _, keyed := range []bool{false, true} {
		for _, m := range []uint64{1917012 /* even */, 1917013 /* odd */, 1 << 21, 1917440 /* block-rounded */} {
			p := mustPlacement(t, PlacementSpec{Layout: LayoutV2, Keyed: keyed, Shards: shards, K: k, M: m, Seed: 3, Key: placementKey, RouteKey: placementRoute})
			load := make([]int, shards)
			mods := []int{2, 8, shards}
			// first[s][j] / all[s][j]: residues of shard s's first / all indexes modulo mods[j].
			first, all := make([][][]int, shards), make([][][]int, shards)
			for s := range first {
				for _, r := range mods {
					first[s], all[s] = append(first[s], make([]int, r)), append(all[s], make([]int, r))
				}
			}
			var idx []uint64
			for i := 0; i < n; i++ {
				var s int
				s, idx = p.Place(idx[:0], placementItem(i))
				load[s]++
				for j, r := range mods {
					first[s][j][idx[0]%uint64(r)]++
					for _, v := range idx {
						if v >= m {
							t.Fatalf("index %d ≥ m=%d", v, m)
						}
						all[s][j][v%uint64(r)]++
					}
				}
			}
			what := fmt.Sprintf("keyed=%v m=%d", keyed, m)
			if x := chi2(load); x > chi2Limit(shards-1) {
				t.Errorf("%s: shard load %v, χ²=%.1f > %.1f", what, load, x, chi2Limit(shards-1))
			}
			for s := 0; s < shards; s++ {
				for j, r := range mods {
					if x := chi2(first[s][j]); x > chi2Limit(r-1) {
						t.Errorf("%s shard %d: first index mod %d %v, χ²=%.1f > %.1f", what, s, r, first[s][j], x, chi2Limit(r-1))
					}
					if x := chi2(all[s][j]); x > chi2Limit(r-1) {
						t.Errorf("%s shard %d: indexes mod %d %v, χ²=%.1f > %.1f", what, s, r, all[s][j], x, chi2Limit(r-1))
					}
				}
			}
		}
	}
}

var placementSink uint64

// BenchmarkPlacement prices one key's whole placement — route and k indexes —
// per layout and mode at the bench geometry (8 shards, k = 7, m = 1 917 012,
// URL-shaped keys of 32–47 bytes).
func BenchmarkPlacement(b *testing.B) {
	items := make([][]byte, 1024)
	for i := range items {
		items[i] = placementItem(i)
	}
	for _, bc := range []struct {
		name   string
		layout Layout
		keyed  bool
	}{{"v1-naive", LayoutV1, false}, {"v1-hardened", LayoutV1, true}, {"v2-naive", LayoutV2, false}, {"v2-hardened", LayoutV2, true}} {
		b.Run(bc.name, func(b *testing.B) {
			p := mustPlacement(b, PlacementSpec{Layout: bc.layout, Keyed: bc.keyed, Shards: 8, K: 7, M: 1917012, Seed: 3, Key: placementKey, RouteKey: placementRoute})
			idx := make([]uint64, 0, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var s int
				s, idx = p.Place(idx[:0], items[i&1023])
				placementSink += uint64(s) + idx[6]
			}
		})
	}
}
