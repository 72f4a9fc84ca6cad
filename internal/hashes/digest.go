package hashes

import (
	"crypto/hmac"
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"fmt"
	"hash"
)

// Algorithm identifies one of the hash functions studied in the paper.
type Algorithm int

// The supported algorithms. Keyed algorithms require a key at Digester
// construction; the others ignore it.
const (
	MD5 Algorithm = iota + 1
	SHA1
	SHA256
	SHA384
	SHA512
	HMACSHA1
	HMACSHA256
	HMACSHA512
	MurmurHash32
	MurmurHash128
	JenkinsOAAT
	FNV1a64
	SipHash24Alg
)

// Algorithms lists every supported algorithm in Table 2 order followed by
// the remaining ones; used by benchmarks and the CLI.
var Algorithms = []Algorithm{
	MurmurHash32, MD5, SHA1, SHA256, SHA384, SHA512, HMACSHA1, SipHash24Alg,
	HMACSHA256, HMACSHA512, MurmurHash128, JenkinsOAAT, FNV1a64,
}

var algNames = map[Algorithm]string{
	MD5:           "MD5",
	SHA1:          "SHA-1",
	SHA256:        "SHA-256",
	SHA384:        "SHA-384",
	SHA512:        "SHA-512",
	HMACSHA1:      "HMAC-SHA-1",
	HMACSHA256:    "HMAC-SHA-256",
	HMACSHA512:    "HMAC-SHA-512",
	MurmurHash32:  "MurmurHash-32",
	MurmurHash128: "MurmurHash-128",
	JenkinsOAAT:   "Jenkins-OAAT",
	FNV1a64:       "FNV-1a-64",
	SipHash24Alg:  "SipHash-2-4",
}

func (a Algorithm) String() string {
	if s, ok := algNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves a case-sensitive name as printed by String.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a, s := range algNames {
		if s == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("hashes: unknown algorithm %q", name)
}

// DigestBits returns the digest length ℓ in bits.
func (a Algorithm) DigestBits() int {
	switch a {
	case MD5:
		return 128
	case SHA1, HMACSHA1:
		return 160
	case SHA256, HMACSHA256:
		return 256
	case SHA384:
		return 384
	case SHA512, HMACSHA512:
		return 512
	case MurmurHash32, JenkinsOAAT:
		return 32
	case MurmurHash128:
		return 128
	case FNV1a64, SipHash24Alg:
		return 64
	default:
		return 0
	}
}

// Cryptographic reports whether the algorithm is designed to resist
// pre-image, second pre-image and collision attacks (§2).
func (a Algorithm) Cryptographic() bool {
	switch a {
	case MD5, SHA1, SHA256, SHA384, SHA512, HMACSHA1, HMACSHA256, HMACSHA512:
		return true
	default:
		return false
	}
}

// Keyed reports whether the algorithm takes a secret key, the property that
// defeats every adversary of §4 when the key stays server-side (§8.2).
func (a Algorithm) Keyed() bool {
	switch a {
	case HMACSHA1, HMACSHA256, HMACSHA512, SipHash24Alg:
		return true
	default:
		return false
	}
}

// A Digester computes salted digests of items under one Algorithm. The salt
// plays pyBloom's role: deriving the k "independent" hash functions from one
// primitive. Digesters are not safe for concurrent use; Clone one per
// goroutine.
type Digester struct {
	alg    Algorithm
	key    []byte
	sipKey SipKey
	h      hash.Hash // reused between Sum calls for stateful algorithms
	salt   [4]byte   // scratch for the big-endian salt prefix
	buf    []byte    // reused digest scratch, see padded
}

// NewDigester returns a Digester for alg. Keyed algorithms require a
// non-empty key (16 bytes exactly for SipHash); unkeyed ones reject a key to
// catch configuration mistakes.
func NewDigester(alg Algorithm, key []byte) (*Digester, error) {
	d := &Digester{alg: alg}
	if alg.Keyed() {
		if len(key) == 0 {
			return nil, fmt.Errorf("hashes: %v requires a key", alg)
		}
		d.key = make([]byte, len(key))
		copy(d.key, key)
	} else if len(key) != 0 {
		return nil, fmt.Errorf("hashes: %v does not take a key", alg)
	}
	switch alg {
	case MD5:
		d.h = md5.New()
	case SHA1:
		d.h = sha1.New()
	case SHA256:
		d.h = sha256.New()
	case SHA384:
		d.h = sha512.New384()
	case SHA512:
		d.h = sha512.New()
	case HMACSHA1:
		d.h = hmac.New(sha1.New, d.key)
	case HMACSHA256:
		d.h = hmac.New(sha256.New, d.key)
	case HMACSHA512:
		d.h = hmac.New(sha512.New, d.key)
	case SipHash24Alg:
		if len(key) != 16 {
			return nil, fmt.Errorf("hashes: SipHash needs a 16-byte key, got %d", len(key))
		}
		var kb [16]byte
		copy(kb[:], key)
		d.sipKey = SipKeyFromBytes(kb)
	case MurmurHash32, MurmurHash128, JenkinsOAAT, FNV1a64:
		// Stateless; nothing to construct.
	default:
		return nil, fmt.Errorf("hashes: unsupported algorithm %v", alg)
	}
	return d, nil
}

// Algorithm returns the algorithm this Digester computes.
func (d *Digester) Algorithm() Algorithm { return d.alg }

// Bits returns the digest length in bits.
func (d *Digester) Bits() int { return d.alg.DigestBits() }

// Clone returns an independent Digester with the same algorithm and key,
// for concurrent use.
func (d *Digester) Clone() *Digester {
	nd, err := NewDigester(d.alg, d.key)
	if err != nil {
		// Construction already succeeded once with identical inputs.
		panic("hashes: clone of valid digester failed: " + err.Error())
	}
	return nd
}

// Sum appends the salted digest of item to dst and returns the extended
// slice. For stateful (crypto) algorithms the salt is hashed as a 4-byte
// big-endian prefix, mirroring pyBloom's salted-copies construction; for
// seeded algorithms the salt is the seed.
func (d *Digester) Sum(dst, item []byte, salt uint32) []byte {
	switch d.alg {
	case MurmurHash32, JenkinsOAAT:
		return binary.BigEndian.AppendUint32(dst, uint32(d.sum64(item, salt)))
	case FNV1a64, SipHash24Alg:
		return binary.BigEndian.AppendUint64(dst, d.sum64(item, salt))
	case MurmurHash128:
		h1, h2 := Murmur128(item, uint64(salt))
		return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(dst, h1), h2)
	default:
		d.h.Reset()
		binary.BigEndian.PutUint32(d.salt[:], salt)
		d.h.Write(d.salt[:]) //nolint:errcheck // hash.Hash writes never fail
		d.h.Write(item)      //nolint:errcheck
		return d.h.Sum(dst)
	}
}

// sum64 is the salted digest of a register-sized algorithm (Bits() ≤ 64) as
// an integer: the value its big-endian spelling in Sum denotes, computed
// without ever becoming bytes. It is the whole hashing cost of the hardened
// serving path (SipHash-2-4), so nothing here may allocate.
func (d *Digester) sum64(item []byte, salt uint32) uint64 {
	switch d.alg {
	case MurmurHash32:
		return uint64(Murmur32(item, salt))
	case JenkinsOAAT:
		return uint64(Jenkins32(item, salt))
	case FNV1a64:
		// FNV-1a over the 4-byte big-endian salt, then the item.
		h := uint64(fnvOffset64)
		for shift := 24; shift >= 0; shift -= 8 {
			h = (h ^ uint64(byte(salt>>uint(shift)))) * fnvPrime64
		}
		for _, b := range item {
			h = (h ^ uint64(b)) * fnvPrime64
		}
		return h
	case SipHash24Alg:
		key := d.sipKey
		key.K1 ^= uint64(salt) // salted variants share the secret, differ in K1
		return SipHash24(key, item)
	default:
		panic("hashes: sum64 of " + d.alg.String() + ", whose digest is wider than a register")
	}
}

// FNV-1a 64-bit parameters (hash/fnv keeps its own unexported).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// windowPad is how many zero bytes padded appends after a digest.
const windowPad = 8

// padded returns the salted digest followed by windowPad zero bytes, in the
// Digester's scratch (valid until the next call): a 64-bit big-endian
// window starting at any bit inside the digest can then be loaded without a
// bounds case, whatever the digest's length.
func (d *Digester) padded(item []byte, salt uint32) []byte {
	d.buf = append(d.Sum(d.buf[:0], item, salt), make([]byte, windowPad)...)
	return d.buf
}

// Sum64 returns the first 64 bits (big-endian) of the salted digest, the
// quantity reduced modulo m for one filter index. Shorter digests are used
// in full.
func (d *Digester) Sum64(item []byte, salt uint32) uint64 {
	if d.Bits() <= 64 {
		return d.sum64(item, salt)
	}
	return binary.BigEndian.Uint64(d.padded(item, salt))
}
