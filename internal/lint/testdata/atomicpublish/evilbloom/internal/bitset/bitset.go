// Package bitset is the fixture twin of the real word-slice store: words
// is read with sync/atomic, so every plain write to it is a finding.
package bitset

import "sync/atomic"

type BitSet struct{ words []uint64 }

func (b *BitSet) SetAtomic(i int, v uint64) {
	atomic.StoreUint64(&b.words[i], v)
}

func (b *BitSet) TestAtomic(i int) uint64 {
	return atomic.LoadUint64(&b.words[i])
}

func (b *BitSet) Set(i int, v uint64) {
	b.words[i] = v // want "non-atomic write"
}

// Reset is the documented plain-write twin; its doc annotation covers
// every write in the body.
//
//lint:allow atomicpublish fixture: documented plain-write twin, callers serialize externally
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// fill writes plainly through its slice parameter: the write counts at each
// call site that passes a field read with sync/atomic.
func fill(dst []uint64) {
	for i := range dst {
		dst[i] = 1
	}
}

// relay passes its parameter on, resliced: it writes it too.
func relay(dst []uint64) {
	dst = dst[1:]
	fill(dst)
}

func (b *BitSet) Load() {
	fill(b.words) // want "non-atomic write"
}

func (b *BitSet) LoadTail() {
	relay(b.words[2:]) // want "non-atomic write"
}

// fillLocal writes only memory of its own.
func fillLocal() []uint64 {
	s := make([]uint64, 4)
	fill(s)
	return s
}
