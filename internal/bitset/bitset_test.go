package bitset

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	for _, size := range []uint64{0, 1, 63, 64, 65, 127, 128, 3200} {
		b := New(size)
		if b.Size() != size {
			t.Errorf("size %d: Size() = %d", size, b.Size())
		}
		if w := b.Weight(); w != 0 {
			t.Errorf("size %d: new set weight = %d, want 0", size, w)
		}
		for i := uint64(0); i < size; i++ {
			if b.Test(i) {
				t.Fatalf("size %d: bit %d set in fresh set", size, i)
			}
		}
	}
}

func TestSetTestClear(t *testing.T) {
	b := New(130)
	for _, i := range []uint64{0, 1, 63, 64, 65, 127, 128, 129} {
		if !b.Set(i) {
			t.Errorf("Set(%d) on unset bit reported not fresh", i)
		}
		if b.Set(i) {
			t.Errorf("Set(%d) on set bit reported fresh", i)
		}
		if !b.Test(i) {
			t.Errorf("Test(%d) = false after Set", i)
		}
		if !b.Clear(i) {
			t.Errorf("Clear(%d) on set bit reported not previously set", i)
		}
		if b.Clear(i) {
			t.Errorf("Clear(%d) on cleared bit reported previously set", i)
		}
		if b.Test(i) {
			t.Errorf("Test(%d) = true after Clear", i)
		}
	}
}

func TestOutOfRange(t *testing.T) {
	b := New(10)
	if b.Set(10) || b.Set(1<<40) {
		t.Error("Set out of range reported fresh")
	}
	if b.Test(10) || b.Test(1<<40) {
		t.Error("Test out of range reported set")
	}
	if b.Clear(10) {
		t.Error("Clear out of range reported previously set")
	}
	if b.Weight() != 0 {
		t.Errorf("out-of-range ops changed weight to %d", b.Weight())
	}
}

func TestWeightAndFill(t *testing.T) {
	b := New(100)
	for i := uint64(0); i < 100; i += 2 {
		b.Set(i)
	}
	if w := b.Weight(); w != 50 {
		t.Errorf("Weight = %d, want 50", w)
	}
	if f := b.Fill(); f != 0.5 {
		t.Errorf("Fill = %v, want 0.5", f)
	}
	var zero BitSet
	if f := zero.Fill(); f != 0 {
		t.Errorf("zero-size Fill = %v, want 0", f)
	}
}

func TestSupport(t *testing.T) {
	b := New(200)
	want := []uint64{0, 5, 63, 64, 100, 199}
	for _, i := range want {
		b.Set(i)
	}
	got := b.Support()
	if len(got) != len(want) {
		t.Fatalf("Support len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Support[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Setting every word to all ones sets exactly Size bits: SetWord trims the
// tail word, so the set stays canonical.
func TestSetAllAndReset(t *testing.T) {
	b := New(70) // crosses a word boundary with a partial tail word
	for i := 0; i < b.Words(); i++ {
		b.SetWord(i, ^uint64(0))
	}
	if w := b.Weight(); w != 70 {
		t.Errorf("all-ones weight = %d, want 70", w)
	}
	for i := uint64(0); i < 70; i++ {
		if !b.Test(i) {
			t.Fatalf("bit %d unset after setting every word", i)
		}
	}
	b.Reset()
	if w := b.Weight(); w != 0 {
		t.Errorf("Reset weight = %d, want 0", w)
	}
}

func TestCloneAndEqual(t *testing.T) {
	b := New(128)
	b.Set(3)
	b.Set(77)
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Set(5)
	if b.Equal(c) {
		t.Fatal("mutating clone changed original equality")
	}
	if b.Test(5) {
		t.Fatal("mutating clone mutated original")
	}
	if b.Equal(New(64)) {
		t.Fatal("sets of different sizes reported equal")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, size := range []uint64{0, 1, 64, 65, 762, 3200} {
		b := New(size)
		rng := rand.New(rand.NewSource(int64(size)))
		for i := uint64(0); i < size/3+1; i++ {
			b.Set(uint64(rng.Int63()) % (size + 1))
		}
		c := New(size)
		if err := c.Load(bytes.NewReader(b.AppendBinary(nil)), make([]byte, 8)); err != nil {
			t.Fatalf("size %d: load: %v", size, err)
		}
		if !b.Equal(c) {
			t.Errorf("size %d: round trip mismatch", size)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	load := func(data []byte) error { return New(100).Load(bytes.NewReader(data), make([]byte, 8)) }
	if err := load(nil); err == nil {
		t.Error("load of nil succeeded")
	}
	if err := load([]byte{1, 2, 3}); err == nil {
		t.Error("load of short header succeeded")
	}
	good := New(100).AppendBinary(nil)
	if err := load(good[:len(good)-1]); err == nil {
		t.Error("load of truncated payload succeeded")
	}
}

// Load overwrites a set of the encoded size in place and refuses a size
// mismatch, a short stream and bits set past the size.
func TestLoad(t *testing.T) {
	src := New(130)
	src.Set(0)
	src.Set(129)
	data := src.AppendBinary(nil)
	dst := New(130)
	dst.Set(64)
	words := dst.words
	if err := dst.Load(bytes.NewReader(data), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) || &dst.words[0] != &words[0] {
		t.Error("Load did not overwrite the set in place")
	}
	if err := New(129).Load(bytes.NewReader(data), make([]byte, 8)); err == nil {
		t.Error("Load accepted another size")
	}
	if err := New(130).Load(bytes.NewReader(data[:len(data)-1]), make([]byte, 64)); err == nil {
		t.Error("Load accepted a truncated stream")
	}
	data[len(data)-1] |= 0x80 // bit 191, past the size
	if err := New(130).Load(bytes.NewReader(data), make([]byte, 64)); err == nil {
		t.Error("Load accepted bits set past the size")
	}
}

// ReadWords fills every word in order whatever the chunk size, and reads
// nothing past the last one.
func TestReadWords(t *testing.T) {
	var data []byte
	for i := uint64(0); i < 10; i++ {
		data = binary.LittleEndian.AppendUint64(data, i*i)
	}
	for _, bufLen := range []int{8, 15, 24, 200} {
		r := bytes.NewReader(data)
		got := make([]uint64, 7)
		err := ReadWords(r, make([]byte, bufLen), got)
		for i, w := range got {
			if w != uint64(i*i) {
				t.Fatalf("buf %d: word %d = %d, want %d", bufLen, i, w, i*i)
			}
		}
		if err != nil || r.Len() != 24 {
			t.Errorf("buf %d: %v, %d bytes left", bufLen, err, r.Len())
		}
	}
	if err := ReadWords(bytes.NewReader(data[:20]), make([]byte, 16), make([]uint64, 3)); err == nil {
		t.Error("ReadWords accepted a short stream")
	}
}

func TestString(t *testing.T) {
	b := New(4)
	b.Set(1)
	b.Set(3)
	if s := b.String(); s != "0101" {
		t.Errorf("String = %q, want 0101", s)
	}
	big := New(1000)
	big.Set(7)
	if s := big.String(); s != "BitSet{m=1000, W=1}" {
		t.Errorf("large String = %q", s)
	}
}

// Property: Weight equals the length of Support, and every supported index
// tests true while a sample of unsupported indexes tests false.
func TestWeightSupportProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		size := uint64(nRaw)%2048 + 1
		b := New(size)
		rng := rand.New(rand.NewSource(seed))
		inserted := map[uint64]bool{}
		for i := 0; i < int(size)/2; i++ {
			idx := uint64(rng.Int63()) % size
			b.Set(idx)
			inserted[idx] = true
		}
		sup := b.Support()
		if uint64(len(sup)) != b.Weight() || len(sup) != len(inserted) {
			return false
		}
		for _, idx := range sup {
			if !inserted[idx] || !b.Test(idx) {
				return false
			}
		}
		for i := uint64(0); i < size; i++ {
			if !inserted[i] && b.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: AppendBinary then Load is the identity for arbitrary contents.
func TestMarshalProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		size := uint64(nRaw) % 4096
		b := New(size)
		rng := rand.New(rand.NewSource(seed))
		for i := uint64(0); size > 0 && i < size/2; i++ {
			b.Set(uint64(rng.Int63()) % size)
		}
		c := New(size)
		if err := c.Load(bytes.NewReader(b.AppendBinary(nil)), make([]byte, 24)); err != nil {
			return false
		}
		return b.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSet(b *testing.B) {
	s := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(uint64(i) & (1<<20 - 1))
	}
}

func BenchmarkWeight(b *testing.B) {
	s := New(1 << 20)
	for i := uint64(0); i < 1<<20; i += 3 {
		s.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Weight()
	}
}
