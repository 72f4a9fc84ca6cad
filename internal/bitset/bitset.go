package bitset

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// BitSet is a fixed-size vector of m bits, all initially zero. The zero value
// is an empty, zero-length set; use New to allocate a sized one.
type BitSet struct {
	size  uint64 // number of valid bits
	words []uint64
}

// New returns a BitSet holding size bits, all zero.
func New(size uint64) *BitSet {
	return &BitSet{
		size:  size,
		words: make([]uint64, (size+wordBits-1)/wordBits),
	}
}

// Size returns the number of bits the set holds (the filter size m).
func (b *BitSet) Size() uint64 { return b.size }

// Set sets bit i to 1. It reports whether the bit was previously unset, which
// lets Bloom filters count newly-set bits without a separate Test call.
// Out-of-range indexes are ignored and report false.
//
//lint:allow atomicpublish plain-write twin of SetAtomic: callers serialize externally and must not expose the set to lock-free readers
func (b *BitSet) Set(i uint64) bool {
	if i >= b.size {
		return false
	}
	w, mask := i/wordBits, uint64(1)<<(i%wordBits)
	fresh := b.words[w]&mask == 0
	b.words[w] |= mask
	return fresh
}

// Clear sets bit i to 0. It reports whether the bit was previously set.
//
//lint:allow atomicpublish plain-write twin: callers serialize externally and must not expose the set to lock-free readers
func (b *BitSet) Clear(i uint64) bool {
	if i >= b.size {
		return false
	}
	w, mask := i/wordBits, uint64(1)<<(i%wordBits)
	was := b.words[w]&mask != 0
	b.words[w] &^= mask
	return was
}

// Test reports whether bit i is set. Out-of-range indexes report false.
func (b *BitSet) Test(i uint64) bool {
	if i >= b.size {
		return false
	}
	return b.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Atomic accessors. A BitSet has no lock of its own; these exist for callers
// that layer their own mutual exclusion over *writes* but want *reads* to
// proceed with no lock at all (the service's lock-free membership path).
// The contract: while any goroutine may call TestAtomic concurrently, all
// mutations must be serialized externally AND must go through the atomic
// write methods — a plain Set racing a TestAtomic is a data race. Writes
// stay single-writer, so the atomic stores need no compare-and-swap.

// SetAtomic is Set with an atomic word store, for bit vectors that are read
// lock-free while a serialized writer mutates them.
func (b *BitSet) SetAtomic(i uint64) bool {
	if i >= b.size {
		return false
	}
	w, mask := i/wordBits, uint64(1)<<(i%wordBits)
	old := atomic.LoadUint64(&b.words[w])
	if old&mask != 0 {
		return false
	}
	atomic.StoreUint64(&b.words[w], old|mask)
	return true
}

// TestAtomic is Test with an atomic word load — safe to call with no lock
// held while a serialized writer uses SetAtomic or Reset.
func (b *BitSet) TestAtomic(i uint64) bool {
	if i >= b.size {
		return false
	}
	return atomic.LoadUint64(&b.words[i/wordBits])&(1<<(i%wordBits)) != 0
}

// Words returns the number of backing 64-bit words.
func (b *BitSet) Words() int { return len(b.words) }

// Word returns backing word i (bits i*64 … i*64+63, LSB first).
// Out-of-range indexes return 0.
func (b *BitSet) Word(i int) uint64 {
	if i < 0 || i >= len(b.words) {
		return 0
	}
	return b.words[i]
}

// SetWord overwrites backing word i wholesale — the digest-delta apply path,
// which patches only the words a peer reported changed. Bits beyond Size in
// the last word are trimmed so the set stays canonical; out-of-range indexes
// are ignored.
//
//lint:allow atomicpublish plain-write twin: delta application patches an unpublished working copy of a peer's digest
func (b *BitSet) SetWord(i int, w uint64) {
	if i < 0 || i >= len(b.words) {
		return
	}
	if rem := b.size % wordBits; rem != 0 && i == len(b.words)-1 {
		w &= 1<<rem - 1
	}
	b.words[i] = w
}

// Weight returns the Hamming weight w_H(z): the number of set bits.
func (b *BitSet) Weight() uint64 {
	var n int
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// Fill returns the fraction of set bits W/m, the quantity that drives every
// false-positive estimate in the paper. A zero-size set has fill 0.
func (b *BitSet) Fill() float64 {
	if b.size == 0 {
		return 0
	}
	return float64(b.Weight()) / float64(b.size)
}

// Support returns supp(z): the sorted indexes of all set bits. The slice is
// freshly allocated; mutating it does not affect the set.
func (b *BitSet) Support() []uint64 {
	out := make([]uint64, 0, b.Weight())
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, uint64(wi*wordBits+bit))
			w &= w - 1
		}
	}
	return out
}

// Reset clears every bit, one atomic store per word, so lock-free readers
// may run alongside a serialized writer calling it.
func (b *BitSet) Reset() {
	for i := range b.words {
		atomic.StoreUint64(&b.words[i], 0)
	}
}

// Clone returns a deep copy.
//
//lint:allow atomicpublish writes land in the freshly allocated copy, which no reader can hold yet
func (b *BitSet) Clone() *BitSet {
	out := &BitSet{size: b.size, words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// Equal reports whether two sets have identical size and contents.
func (b *BitSet) Equal(o *BitSet) bool {
	if b.size != o.size {
		return false
	}
	for i, w := range b.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// AppendBinary appends the set's encoding to dst: an 8-byte little-endian
// size followed by the packed words — the form cache digests (§7 of the
// paper) and snapshotted bloom or blocked shards travel in.
func (b *BitSet) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, b.size)
	for _, w := range b.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Load overwrites the set in place from r, which must hold what AppendBinary
// writes for a set of b's size, decoding each chunk read through buf (≥ 8
// bytes) straight into the words with plain stores: it runs only before
// publication, on a restored store or a decoded digest no reader can reach
// yet. Bits set past Size are refused (not canonical). On error the set is
// half-written.
//
//lint:allow atomicpublish loads run before publication: restores and decoded digests fill a set no reader can reach yet
func (b *BitSet) Load(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return err
	}
	if size := binary.LittleEndian.Uint64(buf); size != b.size {
		return fmt.Errorf("bitset: loading %d bits into a %d-bit set", size, b.size)
	}
	if err := ReadWords(r, buf, b.words); err != nil {
		return err
	}
	if rem := b.size % wordBits; rem != 0 && b.words[len(b.words)-1]>>rem != 0 {
		return fmt.Errorf("bitset: bits set past size %d", b.size)
	}
	return nil
}

// ReadWords fills dst with little-endian 64-bit words read from r, a chunk
// of buf (≥ 8 bytes) at a time and never past the last word, with plain
// stores: dst must be memory no reader can see yet.
func ReadWords(r io.Reader, buf []byte, dst []uint64) error {
	for len(dst) > 0 {
		n := min(len(dst), len(buf)/8)
		chunk := buf[:8*n]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return err
		}
		for j := range dst[:n] {
			dst[j] = binary.LittleEndian.Uint64(chunk[8*j:])
		}
		dst = dst[n:]
	}
	return nil
}

// String renders small sets as a 0/1 string (LSB first) and large ones as a
// summary; used by tests and examples, matching the figures in the paper.
func (b *BitSet) String() string {
	if b.size > 128 {
		return fmt.Sprintf("BitSet{m=%d, W=%d}", b.size, b.Weight())
	}
	buf := make([]byte, b.size)
	for i := uint64(0); i < b.size; i++ {
		if b.Test(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
