package hashes

import "testing"

// Fuzz targets exercise the inversion machinery and index families against
// arbitrary inputs. `go test` runs the seed corpus; `go test -fuzz=Fuzz…`
// explores further.

func FuzzMurmur128PreimageRoundTrip(f *testing.F) {
	f.Add([]byte("http://evil.com/"), uint64(1), uint64(2), uint64(3))
	f.Add([]byte(""), uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, prefixRaw []byte, t1, t2, seed uint64) {
		prefix := prefixRaw[:len(prefixRaw)-len(prefixRaw)%16]
		msg, err := Murmur128Preimage(prefix, t1, t2, seed)
		if err != nil {
			t.Fatalf("preimage: %v", err)
		}
		h1, h2 := Murmur128(msg, seed)
		if h1 != t1 || h2 != t2 {
			t.Fatalf("Murmur128(preimage) = (%#x, %#x), want (%#x, %#x)", h1, h2, t1, t2)
		}
	})
}

func FuzzFamiliesStayInRange(f *testing.F) {
	f.Add([]byte("item"), uint16(1000))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, item []byte, mRaw uint16) {
		m := uint64(mRaw) + 1
		d, err := NewDigester(SHA256, nil)
		if err != nil {
			t.Fatal(err)
		}
		salted, err := NewSalted(d.Clone(), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		recycling, err := NewRecycling(d.Clone(), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		double, err := NewDoubleHashing(5, m, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range []IndexFamily{salted, recycling, double} {
			for _, v := range fam.Indexes(nil, item) {
				if v >= m {
					t.Fatalf("index %d ≥ m=%d", v, m)
				}
			}
		}
	})
}

func FuzzSipHashNoPanics(f *testing.F) {
	f.Add([]byte("data"), uint64(1), uint64(2))
	f.Fuzz(func(t *testing.T, data []byte, k0, k1 uint64) {
		a := SipHash24(SipKey{K0: k0, K1: k1}, data)
		b := SipHash24(SipKey{K0: k0, K1: k1}, data)
		if a != b {
			t.Fatal("SipHash not deterministic")
		}
	})
}
