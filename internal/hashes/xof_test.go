package hashes

import (
	"fmt"
	"testing"
)

func TestXOFExpand(t *testing.T) {
	x, err := NewXOF(HMACSHA256, []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	out := x.Expand([]byte("item"), 100)
	if len(out) != 100 {
		t.Fatalf("Expand returned %d bytes", len(out))
	}
	// Deterministic, prefix-consistent, item- and key-sensitive.
	if string(out[:50]) != string(x.Expand([]byte("item"), 50)) {
		t.Error("XOF not prefix-consistent")
	}
	if string(out) == string(x.Expand([]byte("item2"), 100)) {
		t.Error("XOF ignores the item")
	}
	y, err := NewXOF(HMACSHA256, []byte("other-key"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) == string(y.Expand([]byte("item"), 100)) {
		t.Error("XOF ignores the key")
	}
	if string(out) != string(x.Clone().Expand([]byte("item"), 100)) {
		t.Error("clone diverges")
	}
	if _, err := NewXOF(HMACSHA256, nil); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := NewXOF(MD5, []byte("key")); err == nil {
		t.Error("non-HMAC algorithm accepted")
	}
}

func TestXOFFamily(t *testing.T) {
	fam, err := NewXOFFamily(HMACSHA512, []byte("secret"), 10, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if fam.K() != 10 || fam.M() != 1<<24 {
		t.Errorf("geometry: k=%d m=%d", fam.K(), fam.M())
	}
	idx := fam.Indexes(nil, []byte("x"))
	if len(idx) != 10 {
		t.Fatalf("got %d indexes", len(idx))
	}
	for _, v := range idx {
		if v >= 1<<24 {
			t.Errorf("index %d out of range", v)
		}
	}
	idx2 := fam.Clone().Indexes(nil, []byte("x"))
	for i := range idx {
		if idx[i] != idx2[i] {
			t.Fatal("clone disagrees")
		}
	}
	if _, err := NewXOFFamily(HMACSHA256, []byte("k"), 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
}

// XOF family index distribution is near-uniform.
func TestXOFFamilyDistribution(t *testing.T) {
	const m = 512
	fam, err := NewXOFFamily(HMACSHA256, []byte("secret"), 4, m)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, m)
	var idx []uint64
	for i := 0; i < 20000; i++ {
		idx = fam.Indexes(idx[:0], []byte(fmt.Sprintf("item-%d", i)))
		for _, v := range idx {
			counts[v]++
		}
	}
	expected := float64(20000*4) / m
	var chi2 float64
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	if chi2 > 511+6*32 {
		t.Errorf("chi-squared = %.1f", chi2)
	}
}
