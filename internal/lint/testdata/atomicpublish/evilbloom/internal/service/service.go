// Package service orchestrates lock-free reads, so even a call into a
// plain-writing function two packages away is a finding here.
package service

import "evilbloom/internal/bitset"

type shard struct{ b *bitset.BitSet }

func (s *shard) addAtomic(i int, v uint64) {
	s.b.SetAtomic(i, v)
}

func (s *shard) addPlain(i int, v uint64) {
	s.b.Set(i, v) // want "performs non-atomic writes"
}

func (s *shard) load() {
	s.b.Load() // want "performs non-atomic writes"
}
