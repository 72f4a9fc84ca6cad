package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"evilbloom/internal/service"
)

// seedStore inserts the preload universe of (w, seed) into s, one goroutine
// per generator connection.
func seedStore(s *service.Sharded, w workload, seed uint64) {
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			from, to := split(w.preload, c)
			src := &rangeSource{seed: seed, uni: uniPreload, from: from, to: to, batch: 4096, add: true}
			var kb keyBatch
			for {
				if _, _, ok := src.next(&kb, nil); !ok {
					return
				}
				s.AddBatch(kb.slices())
			}
		}(c)
	}
	wg.Wait()
}

// Snapshot envelope layout, as internal/service/snapshot.go documents it: a
// 72-byte header, then per shard an 8-byte blob length and the blob (8-byte
// count, 8-byte size in bits, packed words), then a CRC-32 of all before it.
const (
	envelopeHeaderLen  = 72
	envelopeTrailerLen = 4
	bloomBlobHeaderLen = 16
)

// buildEnvelope returns the snapshot of a filter of w's geometry at about
// its design fill. Inserting the 48 M keys that geometry is sized for takes
// longer than the whole run, so only the preload universe — the keys that
// reads ask for as "present" — goes through Sharded.AddBatch; the rest of
// the fill is seeded random words ORed into the snapshot (each bit set with
// probability ½, where 48 M real keys would give 0.52). A reader of the
// filter cannot tell the difference: present keys cost k probes over the
// whole bit array, absent ones stop at their first clear bit.
func buildEnvelope(w workload, seed uint64) ([]byte, error) {
	s, err := service.NewSharded(w.cfg)
	if err != nil {
		return nil, err
	}
	seedStore(s, w, seed)
	env, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	if len(env) < envelopeHeaderLen+envelopeTrailerLen {
		return nil, errors.New("snapshot envelope shorter than its own framing")
	}
	state := mix64(seed ^ 0xf111)
	end := len(env) - envelopeTrailerLen
	off := envelopeHeaderLen
	for shard := 0; shard < s.Shards(); shard++ {
		if off+8 > end {
			return nil, fmt.Errorf("snapshot envelope ends inside shard %d", shard)
		}
		blobLen := binary.LittleEndian.Uint64(env[off:])
		off += 8
		if blobLen < bloomBlobHeaderLen || blobLen > uint64(end-off) || (blobLen-bloomBlobHeaderLen)%8 != 0 {
			return nil, fmt.Errorf("snapshot envelope: shard %d blob of %d bytes does not fit the layout this harness knows", shard, blobLen)
		}
		words := env[off+bloomBlobHeaderLen : off+int(blobLen)]
		// The last word may be partial: bits beyond the size must stay
		// clear, so it is left as the real keys set it.
		for i := 0; i+8 < len(words); i += 8 {
			state += 0x9e3779b97f4a7c15
			binary.LittleEndian.PutUint64(words[i:], binary.LittleEndian.Uint64(words[i:])|mix64(state))
		}
		off += int(blobLen)
	}
	if off != end {
		return nil, fmt.Errorf("snapshot envelope: %d bytes of payload left over", end-off)
	}
	binary.LittleEndian.PutUint32(env[end:], crc32.ChecksumIEEE(env[:end]))
	return env, nil
}
