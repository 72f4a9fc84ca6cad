package hashes

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
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

// benchShapedItems returns n URL-shaped keys whose lengths are uniform over
// 32–47 bytes, drawn from a PRNG seeded with seed — the shape the bench's
// generator sends. A length that climbs slowly (as placementItem's does)
// lets the branch predictor learn the hash tails; these do not.
func benchShapedItems(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	items := make([][]byte, n)
	for i := range items {
		item := fmt.Appendf(nil, "http://h%03x.ex.org/u/a%010x%016x", rng.Intn(4096), i, rng.Uint64())
		items[i] = item[:32+rng.Intn(16)]
	}
	return items
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
		"layout 4":     func(s *PlacementSpec) { s.Layout = 4 },
		"unkeyed v3":   func(s *PlacementSpec) { s.Layout, s.Keyed = LayoutV3, false },
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

// DoubleHashing's progression is (h1 mod m + i·(h2 mod m)) mod m for every
// m, past 2⁶³ too, where a sum taken before reducing would wrap 2⁶⁴.
func TestDoubleHashingMatchesDefinition(t *testing.T) {
	for _, m := range []uint64{1, 2, 3200, 1917012, 1<<63 - 1, 1 << 63, 1<<63 + 5, 1<<64 - 1} {
		fam, err := NewDoubleHashing(64, m, 9)
		if err != nil {
			t.Fatal(err)
		}
		bm := new(big.Int).SetUint64(m)
		for i := 0; i < 50; i++ {
			item := placementItem(i)
			h1, h2 := Murmur128(item, 9)
			g := new(big.Int).Mod(new(big.Int).SetUint64(h1), bm)
			step := new(big.Int).Mod(new(big.Int).SetUint64(h2), bm)
			for j, got := range fam.Indexes(nil, item) {
				v := new(big.Int).Mul(step, big.NewInt(int64(j)))
				if want := v.Add(v, g).Mod(v, bm).Uint64(); got != want {
					t.Fatalf("m=%d item %d: index %d = %d, definition says %d", m, i, j, got, want)
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

// specV3Hardened reads the keyed v3 rule the slow way, from its written
// definition, with the byte-loop SipHash oracle and math/big: the key is
// SHA-256("evilbloom placement v3" ‖ key ‖ route)[:16] read as (K0, K1);
// (h1, h2) is SipHash-2-4-128 of item under it; the shard is h1's top
// log₂(shards) bits; index i is (h1 mod m + i·(1 + h2 mod (m − 1))) mod m,
// and every index is 0 when m = 1.
func specV3Hardened(key, route []byte, shards, k int, m uint64, item []byte) (int, []uint64) {
	sum := sha256.Sum256(append(append([]byte("evilbloom placement v3"), key...), route...))
	h1, h2 := oracleSipHash128(SipKeyFromBytes([16]byte(sum[:16])), item)
	shard := 0
	if shards > 1 {
		shard = int(h1 >> (64 - bits.TrailingZeros(uint(shards))))
	}
	idx := make([]uint64, k)
	if m == 1 {
		return shard, idx
	}
	bm := new(big.Int).SetUint64(m)
	g := new(big.Int).Mod(new(big.Int).SetUint64(h1), bm)
	step := new(big.Int).Mod(new(big.Int).SetUint64(h2), new(big.Int).SetUint64(m-1))
	step.Add(step, big.NewInt(1))
	for i := range idx {
		v := new(big.Int).Mul(step, big.NewInt(int64(i)))
		idx[i] = v.Add(v, g).Mod(v, bm).Uint64()
	}
	return shard, idx
}

func TestPlacementV3HardenedMatchesItsDefinition(t *testing.T) {
	for _, m := range []uint64{1, 2, 3, 3200, 9586, 1917012, 1 << 21, 1<<21 + 1, 1 << 33, 1<<63 + 5, 1<<64 - 1} {
		for _, shards := range []int{1, 2, 8, 65536} {
			for _, k := range []int{1, 2, 7, 10, 64, 512} {
				p := mustPlacement(t, PlacementSpec{Layout: LayoutV3, Keyed: true, Shards: shards, K: k, M: m, Key: placementKey, RouteKey: placementRoute})
				for i := 0; i < 8; i++ {
					item := placementItem(i)
					wantShard, want := specV3Hardened(placementKey, placementRoute, shards, k, m, item)
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

// Start answers for exactly unkeyed v2 and v3, with a progression inside
// the shard that is the item's indexes, at sizes down to m = 1 and 2 (v3's
// step modulus floors at 1).
func TestPlacementStart(t *testing.T) {
	for _, layout := range []Layout{LayoutV1, LayoutV2, LayoutV3} {
		for _, keyed := range []bool{false, true} {
			if !layout.Places(keyed) {
				continue
			}
			for _, m := range []uint64{1, 2, 1917012} {
				p := mustPlacement(t, PlacementSpec{Layout: layout, Keyed: keyed, Shards: 8, K: 7, M: m, Seed: 3, Key: placementKey, RouteKey: placementRoute})
				for i := 0; i < 200; i++ {
					item := placementItem(i)
					shard, d := p.Route(item)
					g, step, ok := p.Start(d)
					if want := layout == LayoutV3 || layout == LayoutV2 && !keyed; ok != want {
						t.Fatalf("v%d keyed=%v: Start ok = %v, want %v", layout, keyed, ok, want)
					}
					if !ok {
						break
					}
					if g >= m || step > m {
						t.Fatalf("v%d keyed=%v m=%d: Start = (%d, %d), out of range", layout, keyed, m, g, step)
					}
					got := Progression(nil, g, step, m, 7)
					if want := p.Indexes(nil, item, shard, d); !slices.Equal(got, want) {
						t.Fatalf("v%d keyed=%v m=%d item %d: Start's progression %v, Indexes %v", layout, keyed, m, i, got, want)
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

// Which secrets move a key: both under keyed v2 and v3 (the route key is
// folded into the one PRF key), neither under unkeyed v2, whose whole rule is
// public.
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
	anotherRoute := []byte("another-route-k!")
	for _, layout := range []Layout{LayoutV2, LayoutV3} {
		base := PlacementSpec{Layout: layout, Keyed: true, Shards: 8, K: 7, M: 1917012, Key: placementKey, RouteKey: placementRoute}
		otherKey, otherRoute := base, base
		otherKey.Key = []byte("another-16b-key!")
		otherRoute.RouteKey = anotherRoute
		for name, spec := range map[string]PlacementSpec{"key": otherKey, "route key": otherRoute} {
			s, i := moved(mustPlacement(t, base), mustPlacement(t, spec))
			if s < 1600 || i != 2000 {
				t.Errorf("hardened v%d, other %s: %d/2000 shards and %d/2000 index sets moved, want ≈ 1750 and 2000", layout, name, s, i)
			}
		}
	}
	naive := PlacementSpec{Layout: LayoutV2, Shards: 8, K: 7, M: 1917012, Seed: 3, RouteKey: placementRoute}
	naiveOther := naive
	naiveOther.RouteKey = anotherRoute
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
// anything about the indexes inside it — keyed v3's first index is h1 mod m,
// the same word its shard is cut from. (Taking the shard from the LOW bits
// of h1 while indexing with h1 mod m fails the first-index check on even m:
// inside shard s every first index would be ≡ s modulo gcd(m, shards).)
// Each index position is checked on its own: across items it is one
// independent draw. The residues of all k indexes pooled are checked too,
// except under v3: a progression's k indexes share g₀ and step, so their
// pooled residues vary ≈ 3.6× more than χ² assumes (mod 2, even m), and v3's
// exceed the bound at two of these fixed cells (χ² 20.0 and 16.6 > 15.1).
// Unkeyed v2 is a progression too and stays within it here.
func TestPlacementV2Uniformity(t *testing.T) {
	const shards, k, n = 8, 7, 60000
	for _, rule := range []struct {
		layout Layout
		keyed  bool
	}{{LayoutV2, false}, {LayoutV2, true}, {LayoutV3, true}} {
		pooled := rule.layout == LayoutV2
		for _, m := range []uint64{1917012 /* even */, 1917013 /* odd */, 1 << 21, 1917440 /* block-rounded */} {
			p := mustPlacement(t, PlacementSpec{Layout: rule.layout, Keyed: rule.keyed, Shards: shards, K: k, M: m, Seed: 3, Key: placementKey, RouteKey: placementRoute})
			load := make([]int, shards)
			mods := []int{2, 8, shards}
			// at[s][i][j] / all[s][j]: residues of shard s's index i / of all
			// its indexes modulo mods[j].
			at, all := make([][][][]int, shards), make([][][]int, shards)
			for s := range at {
				at[s] = make([][][]int, k)
				for _, r := range mods {
					for i := range at[s] {
						at[s][i] = append(at[s][i], make([]int, r))
					}
					all[s] = append(all[s], make([]int, r))
				}
			}
			var idx []uint64
			for i := 0; i < n; i++ {
				var s int
				s, idx = p.Place(idx[:0], placementItem(i))
				load[s]++
				for j, r := range mods {
					for pos, v := range idx {
						if v >= m {
							t.Fatalf("index %d ≥ m=%d", v, m)
						}
						at[s][pos][j][v%uint64(r)]++
						all[s][j][v%uint64(r)]++
					}
				}
			}
			what := fmt.Sprintf("v%d keyed=%v m=%d", rule.layout, rule.keyed, m)
			if x := chi2(load); x > chi2Limit(shards-1) {
				t.Errorf("%s: shard load %v, χ²=%.1f > %.1f", what, load, x, chi2Limit(shards-1))
			}
			for s := 0; s < shards; s++ {
				for j, r := range mods {
					for pos := range at[s] {
						if x := chi2(at[s][pos][j]); x > chi2Limit(r-1) {
							t.Errorf("%s shard %d: index %d mod %d %v, χ²=%.1f > %.1f", what, s, pos, r, at[s][pos][j], x, chi2Limit(r-1))
						}
					}
					if x := chi2(all[s][j]); pooled && x > chi2Limit(r-1) {
						t.Errorf("%s shard %d: indexes mod %d %v, χ²=%.1f > %.1f", what, s, r, all[s][j], x, chi2Limit(r-1))
					}
				}
			}
		}
	}
}

// placementV2M maps two fuzz bytes onto a filter size: 2^b − 1, 2^b or
// 2^b + 1, or one of the sizes the service meets (1, the bench's small and
// large shards, the largest).
func placementV2M(sel, b uint8) uint64 {
	p := uint64(1) << (b % 64)
	switch sel % 4 {
	case 0:
		return max(p-1, 1)
	case 1:
		return p
	case 2:
		return p + 1
	default:
		return []uint64{1, 1917012, 57510352, 1<<64 - 1}[b%4]
	}
}

// FuzzPlacementV2MatchesDefinition holds layout 2 — what every new naive
// filter gets; keyed v2 is a read path — to its written rule over fuzzed
// items of 0–300 bytes and fuzzed geometry: shards a power of two up to
// 65 536, k 1–40 (one digest or several), m 1 or near a power of two.
// Keyed, that rule is specV2Hardened; unkeyed, DoubleHashing's indexes and
// the top bits of h1 for the shard.
func FuzzPlacementV2MatchesDefinition(f *testing.F) {
	for i, item := range append(benchShapedItems(4, 1), placementItem(0), placementItem(1), nil) {
		f.Add(item, i%2 == 0, uint8(3), uint8(6), uint8(3), uint8(1), uint64(3), uint64(1), uint64(2))
	}
	f.Add(placementItem(2), true, uint8(3), uint8(9), uint8(3), uint8(2), uint64(0), uint64(5), uint64(7))
	f.Add(placementItem(3), true, uint8(16), uint8(39), uint8(0), uint8(33), uint64(0), uint64(1<<63), uint64(0))
	f.Add(placementItem(4), false, uint8(16), uint8(39), uint8(2), uint8(63), uint64(1<<63), uint64(0), uint64(9))
	f.Fuzz(func(t *testing.T, item []byte, keyed bool, shardsLog, kRaw, mSel, mBits uint8, seed, key, route uint64) {
		item = item[:min(len(item), 300)]
		shards, k, m := 1<<(shardsLog%17), int(kRaw%40)+1, placementV2M(mSel, mBits)
		p := mustPlacement(t, PlacementSpec{
			Layout: LayoutV2, Keyed: keyed, Shards: shards, K: k, M: m, Seed: seed,
			Key:      binary.LittleEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, key), ^key),
			RouteKey: binary.LittleEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, route), ^route),
		})
		var wantShard int
		var want []uint64
		if keyed {
			wantShard, want = specV2Hardened(p.keys[0], shards, k, m, item)
		} else {
			fam, err := NewDoubleHashing(k, m, seed)
			if err != nil {
				t.Fatal(err)
			}
			h1, _ := Murmur128(item, seed)
			wantShard, want = int(h1>>(64-uint(shardsLog%17))), fam.Indexes(nil, item)
		}
		what := fmt.Sprintf("keyed=%v shards=%d k=%d m=%d item=%x", keyed, shards, k, m, item)
		shard, got := p.Place(nil, item)
		if shard != wantShard || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: placed (%d, %v), definition says (%d, %v)", what, shard, got, wantShard, want)
		}
		if again := p.Family(int(seed)&(shards-1)).Indexes(nil, item); fmt.Sprint(again) != fmt.Sprint(want) {
			t.Fatalf("%s: Family view gives %v, want %v", what, again, want)
		}
	})
}

// FuzzPlacementV3MatchesDefinition holds layout 3 — what every new hardened
// filter gets — to specV3Hardened over fuzzed items of 0–300 bytes, fuzzed
// keys and fuzzed geometry: shards a power of two up to 65 536, k 1–40, m 1
// or near a power of two (up to 2⁶⁴ − 1, where the progression must not
// wrap). It also holds the step's purpose: from m = 2 on, an item's first
// two indexes differ.
func FuzzPlacementV3MatchesDefinition(f *testing.F) {
	for i, item := range append(benchShapedItems(4, 1), placementItem(0), placementItem(1), nil) {
		f.Add(item, uint8(3), uint8(6), uint8(3), uint8(i), uint64(1), uint64(2))
	}
	f.Add(placementItem(2), uint8(3), uint8(9), uint8(1), uint8(0), uint64(0), uint64(7))
	f.Add(placementItem(3), uint8(16), uint8(39), uint8(0), uint8(63), uint64(1<<63), uint64(0))
	f.Add(placementItem(4), uint8(0), uint8(39), uint8(2), uint8(63), uint64(5), uint64(9))
	f.Fuzz(func(t *testing.T, item []byte, shardsLog, kRaw, mSel, mBits uint8, key, route uint64) {
		item = item[:min(len(item), 300)]
		shards, k, m := 1<<(shardsLog%17), int(kRaw%40)+1, placementV2M(mSel, mBits)
		keyB := binary.LittleEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, key), ^key)
		routeB := binary.LittleEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, route), ^route)
		p := mustPlacement(t, PlacementSpec{Layout: LayoutV3, Keyed: true, Shards: shards, K: k, M: m, Key: keyB, RouteKey: routeB})
		wantShard, want := specV3Hardened(keyB, routeB, shards, k, m, item)
		what := fmt.Sprintf("shards=%d k=%d m=%d item=%x", shards, k, m, item)
		shard, got := p.Place(nil, item)
		if shard != wantShard || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: placed (%d, %v), definition says (%d, %v)", what, shard, got, wantShard, want)
		}
		if again := p.Family(int(route)&(shards-1)).Indexes(nil, item); fmt.Sprint(again) != fmt.Sprint(want) {
			t.Fatalf("%s: Family view gives %v, want %v", what, again, want)
		}
		if m >= 2 && k >= 2 && got[0] == got[1] {
			t.Fatalf("%s: indexes %v repeat their first position", what, got)
		}
	})
}

var placementSink uint64

// BenchmarkPlacement prices one key's whole placement — route and k indexes —
// per layout and mode at the bench geometry (8 shards, k = 7, m = 1 917 012),
// over bench-shaped keys (URL-shaped, lengths uniform over 32–47 bytes).
// The -k10 rows are k = 10 at the large filter's shard size
// (m = 57 510 352, 26-bit indexes): three PRF calls under keyed v2, still
// one under v3. The -batch rows place 64-key windows the way the store's
// batches do — RouteBatch over the window, then Indexes key by key — and
// report per key; b.N counts keys.
func BenchmarkPlacement(b *testing.B) {
	items := benchShapedItems(1024, 1)
	for _, bc := range []struct {
		name   string
		layout Layout
		keyed  bool
		k      int
		m      uint64
		batch  bool
	}{
		{"v1-naive", LayoutV1, false, 7, 1917012, false},
		{"v1-hardened", LayoutV1, true, 7, 1917012, false},
		{"v2-naive", LayoutV2, false, 7, 1917012, false},
		{"v2-naive-batch", LayoutV2, false, 7, 1917012, true},
		{"v2-hardened", LayoutV2, true, 7, 1917012, false},
		{"v2-hardened-batch", LayoutV2, true, 7, 1917012, true},
		{"v2-hardened-k10", LayoutV2, true, 10, 57510352, false},
		{"v3-hardened", LayoutV3, true, 7, 1917012, false},
		{"v3-hardened-batch", LayoutV3, true, 7, 1917012, true},
		{"v3-hardened-k10", LayoutV3, true, 10, 57510352, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := mustPlacement(b, PlacementSpec{Layout: bc.layout, Keyed: bc.keyed, Shards: 8, K: bc.k, M: bc.m, Seed: 3, Key: placementKey, RouteKey: placementRoute})
			idx := make([]uint64, 0, 64*bc.k)
			var shards [64]uint16
			var digests [64]PlacementDigest
			b.ReportAllocs()
			b.ResetTimer()
			if bc.batch {
				for i := 0; i < b.N; i += 64 {
					window := items[i&1023 : i&1023+64]
					p.RouteBatch(shards[:], digests[:], window)
					idx = idx[:0]
					for j, it := range window {
						idx = p.Indexes(idx, it, int(shards[j]), digests[j])
					}
					placementSink += uint64(shards[63]) + idx[64*bc.k-1]
				}
				return
			}
			for i := 0; i < b.N; i++ {
				var s int
				s, idx = p.Place(idx[:0], items[i&1023])
				placementSink += uint64(s) + idx[bc.k-1]
			}
		})
	}
}
