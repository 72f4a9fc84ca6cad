package hashes

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"fmt"
	"hash"
)

// §10: extensible-output stand-in (SHAKE substitute). The standard library
// has no SHA-3, and HMAC in counter mode preserves the "keyed,
// arbitrary-length digest" interface the paper's conclusion calls for.

// XOF is a keyed extensible-output function built as HMAC in counter mode:
// block_i = HMAC(key, item ‖ i). It stands in for keyed SHAKE-128/256 —
// the "ideal hash function for Bloom filters" the paper's conclusion asks
// for: keyed, uniform, and yielding arbitrary-length output so any (k, m)
// geometry costs ⌈bits/ℓ⌉ PRF calls. Not safe for concurrent use; Clone
// per goroutine.
type XOF struct {
	alg Algorithm
	key []byte
	mac hash.Hash
}

// NewXOF builds an XOF over HMAC-SHA-256 (bits ≤ 256 per block) or
// HMAC-SHA-512 with the given key.
func NewXOF(alg Algorithm, key []byte) (*XOF, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("hashes: XOF requires a key")
	}
	k := make([]byte, len(key))
	copy(k, key)
	switch alg {
	case HMACSHA256:
		return &XOF{alg: alg, key: k, mac: hmac.New(sha256.New, k)}, nil
	case HMACSHA512:
		return &XOF{alg: alg, key: k, mac: hmac.New(sha512.New, k)}, nil
	default:
		return nil, fmt.Errorf("hashes: XOF supports HMAC-SHA-256/512, not %v", alg)
	}
}

// Clone returns an independent XOF with the same key.
func (x *XOF) Clone() *XOF {
	nx, err := NewXOF(x.alg, x.key)
	if err != nil {
		// Construction already succeeded once with identical inputs.
		panic("hashes: clone of valid XOF failed: " + err.Error())
	}
	return nx
}

// Expand returns outBytes bytes of keyed output for item.
func (x *XOF) Expand(item []byte, outBytes int) []byte {
	out := make([]byte, 0, outBytes)
	var ctr [4]byte
	for i := uint32(0); len(out) < outBytes; i++ {
		x.mac.Reset()
		binary.BigEndian.PutUint32(ctr[:], i)
		x.mac.Write(item)   //nolint:errcheck // hash writes never fail
		x.mac.Write(ctr[:]) //nolint:errcheck
		out = x.mac.Sum(out)
	}
	return out[:outBytes]
}

// XOFFamily derives Bloom indexes from an XOF: exactly ⌈k·⌈log₂m⌉/8⌉ bytes
// are expanded per item.
type XOFFamily struct {
	xof     *XOF
	k       int
	m       uint64
	bitsPer int
}

var _ IndexFamily = (*XOFFamily)(nil)

// NewXOFFamily builds the family.
func NewXOFFamily(alg Algorithm, key []byte, k int, m uint64) (*XOFFamily, error) {
	if k <= 0 || m == 0 {
		return nil, fmt.Errorf("hashes: invalid geometry k=%d m=%d", k, m)
	}
	xof, err := NewXOF(alg, key)
	if err != nil {
		return nil, err
	}
	return &XOFFamily{xof: xof, k: k, m: m, bitsPer: BitsPerIndex(m)}, nil
}

// Indexes implements IndexFamily.
func (f *XOFFamily) Indexes(dst []uint64, item []byte) []uint64 {
	need := (f.k*f.bitsPer + 7) / 8
	stream := f.xof.Expand(item, need)
	var acc uint64
	bits := 0
	produced := 0
	for _, b := range stream {
		acc = acc<<8 | uint64(b)
		bits += 8
		for bits >= f.bitsPer && produced < f.k {
			shift := uint(bits - f.bitsPer)
			v := acc >> shift & (1<<uint(f.bitsPer) - 1)
			acc &= 1<<shift - 1
			bits -= f.bitsPer
			dst = append(dst, v%f.m)
			produced++
		}
		if produced == f.k {
			break
		}
	}
	return dst
}

// K implements IndexFamily.
func (f *XOFFamily) K() int { return f.k }

// M implements IndexFamily.
func (f *XOFFamily) M() uint64 { return f.m }

// Clone implements IndexFamily.
func (f *XOFFamily) Clone() IndexFamily {
	return &XOFFamily{xof: f.xof.Clone(), k: f.k, m: f.m, bitsPer: f.bitsPer}
}
