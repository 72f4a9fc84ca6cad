package hashes

import (
	"testing"
	"testing/quick"
)

func mustDigester(t *testing.T, alg Algorithm, key []byte) *Digester {
	t.Helper()
	d, err := NewDigester(alg, key)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func checkFamily(t *testing.T, fam IndexFamily, wantK int, wantM uint64) {
	t.Helper()
	if fam.K() != wantK {
		t.Errorf("K = %d, want %d", fam.K(), wantK)
	}
	if fam.M() != wantM {
		t.Errorf("M = %d, want %d", fam.M(), wantM)
	}
	item := []byte("http://example.com/page")
	idx := fam.Indexes(nil, item)
	if len(idx) != wantK {
		t.Fatalf("Indexes produced %d values, want %d", len(idx), wantK)
	}
	for i, v := range idx {
		if v >= wantM {
			t.Errorf("index[%d] = %d out of range m=%d", i, v, wantM)
		}
	}
	// Determinism.
	idx2 := fam.Indexes(nil, item)
	for i := range idx {
		if idx[i] != idx2[i] {
			t.Fatal("indexes not deterministic")
		}
	}
	// Clone agrees.
	idx3 := fam.Clone().Indexes(nil, item)
	for i := range idx {
		if idx[i] != idx3[i] {
			t.Fatal("clone disagrees with original")
		}
	}
	// Append semantics.
	pre := []uint64{99}
	out := fam.Indexes(pre, item)
	if out[0] != 99 || len(out) != 1+wantK {
		t.Error("Indexes did not append to dst")
	}
}

func TestSaltedFamily(t *testing.T) {
	fam, err := NewSalted(mustDigester(t, SHA256, nil), 4, 3200)
	if err != nil {
		t.Fatal(err)
	}
	checkFamily(t, fam, 4, 3200)
	if fam.DigestCalls() != 4 {
		t.Errorf("DigestCalls = %d, want 4", fam.DigestCalls())
	}
}

func TestSaltedValidation(t *testing.T) {
	d := mustDigester(t, MD5, nil)
	if _, err := NewSalted(d, 0, 100); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewSalted(d, 4, 0); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestDoubleHashingFamily(t *testing.T) {
	fam, err := NewDoubleHashing(4, 3200, 42)
	if err != nil {
		t.Fatal(err)
	}
	checkFamily(t, fam, 4, 3200)
	if fam.DigestCalls() != 1 {
		t.Errorf("DigestCalls = %d, want 1", fam.DigestCalls())
	}
	// The defining structure g_i = (h1 + i·h2) mod m, accumulated in
	// reduced space.
	item := []byte("structured")
	idx := fam.Indexes(nil, item)
	h1, h2 := Murmur128(item, 42)
	g, step := h1%3200, h2%3200
	for i, v := range idx {
		if v != g {
			t.Errorf("g_%d = %d, want %d", i, v, g)
		}
		g = (g + step) % 3200
	}
}

// The arithmetic-progression structure must hold for every item — it is
// what the §6.2 instant second pre-image relies on.
func TestDoubleHashingProgressionProperty(t *testing.T) {
	fam, err := NewDoubleHashing(7, 95851, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(item []byte) bool {
		idx := fam.Indexes(nil, item)
		stride := (idx[1] + 95851 - idx[0]) % 95851
		for i, v := range idx {
			if (idx[0]+uint64(i)*stride)%95851 != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRecyclingFamily(t *testing.T) {
	fam, err := NewRecycling(mustDigester(t, SHA512, nil), 10, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	checkFamily(t, fam, 10, 1<<24)
	// 10 indexes × 24 bits = 240 bits ≤ 512: exactly one digest call.
	if fam.DigestCalls() != 1 {
		t.Errorf("DigestCalls = %d, want 1", fam.DigestCalls())
	}
}

func TestRecyclingNeedsMultipleCalls(t *testing.T) {
	// k=20, m=2^30 → 20 indexes × 30 bits = 600 bits > 512: SHA-512 must be
	// called twice (17 whole indexes per digest).
	fam, err := NewRecycling(mustDigester(t, SHA512, nil), 20, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	checkFamily(t, fam, 20, 1<<30)
	if fam.DigestCalls() != 2 {
		t.Errorf("DigestCalls = %d, want 2", fam.DigestCalls())
	}
}

func TestRecyclingRejectsTooSmallDigest(t *testing.T) {
	// One index needs 33 bits but Murmur32 yields 32.
	if _, err := NewRecycling(mustDigester(t, MurmurHash32, nil), 2, 1<<33); err == nil {
		t.Error("digest shorter than one index accepted")
	}
}

func TestBitsPerIndex(t *testing.T) {
	cases := []struct {
		m    uint64
		want int
	}{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {762, 10}, {1024, 10}, {1025, 11}, {3200, 12},
	}
	for _, c := range cases {
		if got := BitsPerIndex(c.m); got != c.want {
			t.Errorf("BitsPerIndex(%d) = %d, want %d", c.m, got, c.want)
		}
	}
	if got := RequiredBits(4, 3200); got != 48 {
		t.Errorf("RequiredBits(4, 3200) = %d, want 48", got)
	}
}

func TestDigestCallsFor(t *testing.T) {
	// Fig 9 sanity: one SHA-512 call suffices for f ≥ 2^-15 (k=15) with
	// m = 2^30 bits (128 MB): 15×30=450 ≤ 512 and 512/30=17 ≥ 15.
	if got := DigestCallsFor(SHA512, 15, 1<<30); got != 1 {
		t.Errorf("SHA-512 calls for k=15, m=2^30 = %d, want 1", got)
	}
	// SHA-1 (160 bits) with 30-bit indexes fits 5 per call: k=15 → 3 calls.
	if got := DigestCallsFor(SHA1, 15, 1<<30); got != 3 {
		t.Errorf("SHA-1 calls = %d, want 3", got)
	}
	// Digest shorter than one index.
	if got := DigestCallsFor(MurmurHash32, 2, 1<<33); got != 0 {
		t.Errorf("impossible recycling = %d, want 0", got)
	}
}

// The recycling and salted families must produce well-distributed indexes:
// filling a filter-like histogram should be near-uniform.
func TestFamilyDistribution(t *testing.T) {
	const m, n = 512, 20000
	fams := map[string]IndexFamily{}
	s, err := NewSalted(mustDigester(t, SHA1, nil), 4, m)
	if err != nil {
		t.Fatal(err)
	}
	fams["salted"] = s
	r, err := NewRecycling(mustDigester(t, SHA512, nil), 4, m)
	if err != nil {
		t.Fatal(err)
	}
	fams["recycling"] = r
	dh, err := NewDoubleHashing(4, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	fams["double"] = dh
	md, err := NewMD5Split(m)
	if err != nil {
		t.Fatal(err)
	}
	fams["md5split"] = md

	for name, fam := range fams {
		counts := make([]float64, m)
		var idx []uint64
		var buf [16]byte
		for i := 0; i < n; i++ {
			buf[0], buf[1], buf[2] = byte(i), byte(i>>8), byte(i>>16)
			idx = fam.Indexes(idx[:0], buf[:])
			for _, v := range idx {
				counts[v]++
			}
		}
		expected := float64(n*4) / float64(m)
		var chi2 float64
		for _, c := range counts {
			d := c - expected
			chi2 += d * d / expected
		}
		// dof = 511; allow a very generous 6-sigma band. Note double hashing's
		// indexes within one item are correlated but marginals stay uniform.
		if chi2 > 511+6*32 {
			t.Errorf("%s: chi-squared = %.1f, far from uniform", name, chi2)
		}
	}
}

func TestMD5SplitFamily(t *testing.T) {
	fam, err := NewMD5Split(762)
	if err != nil {
		t.Fatal(err)
	}
	checkFamily(t, fam, 4, 762)
	if fam.DigestCalls() != 1 {
		t.Errorf("DigestCalls = %d, want 1", fam.DigestCalls())
	}
	if _, err := NewMD5Split(0); err == nil {
		t.Error("m=0 accepted")
	}
}

// Property: salted and recycling over the same digester agree on k and m and
// always produce in-range indexes for arbitrary items.
func TestFamiliesInRangeProperty(t *testing.T) {
	s, err := NewSalted(mustDigester(t, SHA256, nil), 6, 999)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRecycling(mustDigester(t, SHA256, nil), 6, 999)
	if err != nil {
		t.Fatal(err)
	}
	f := func(item []byte) bool {
		for _, fam := range []IndexFamily{s, r} {
			for _, v := range fam.Indexes(nil, item) {
				if v >= 999 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSaltedSHA1K4(b *testing.B) {
	d, _ := NewDigester(SHA1, nil)
	fam, _ := NewSalted(d, 4, 1<<24)
	item := []byte("http://example.com/some/page.html")
	var idx []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx = fam.Indexes(idx[:0], item)
	}
}

func BenchmarkRecyclingSHA512K10(b *testing.B) {
	d, _ := NewDigester(SHA512, nil)
	fam, _ := NewRecycling(d, 10, 1<<24)
	item := []byte("http://example.com/some/page.html")
	var idx []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx = fam.Indexes(idx[:0], item)
	}
}

// The hardened serving path on resp-churn-durable's geometry: SipHash-2-4,
// k = 7 over a 1 917 012-bit shard: 21 bits an index, three to a digest,
// three digests per key.
func BenchmarkRecyclingSipHashK7(b *testing.B) {
	d, _ := NewDigester(SipHash24Alg, []byte("0123456789abcdef"))
	fam, _ := NewRecycling(d, 7, 1917012)
	item := []byte("http://example.com/some/page.html")
	var idx []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx = fam.Indexes(idx[:0], item)
	}
}

func BenchmarkDoubleHashingK4(b *testing.B) {
	fam, _ := NewDoubleHashing(4, 1<<24, 0)
	item := []byte("http://example.com/some/page.html")
	var idx []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx = fam.Indexes(idx[:0], item)
	}
}
