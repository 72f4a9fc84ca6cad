package main

// Key universes. A key's universe is spelled in the key itself, so two
// universes never share a key and "never inserted" holds by construction.
const (
	uniPreload = 'a' // inserted during set-up: always present
	uniChurn   = 'b' // inserted by BF.MADD during the timed phase
	uniAbsent  = 'n' // read during the timed phase, never inserted
	uniProbe   = 'p' // the final false-positive probe, never inserted
)

const hexDigits = "0123456789abcdef"

// mix64 is the splitmix64 finalizer: a bijection on uint64 whose output
// bits all depend on all input bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// appendKey appends the URL-shaped key (seed, uni, idx) to dst: 32 to 47
// bytes, a pure function of its arguments. The index is spelled out (ten hex
// digits, so idx < 2^40), which makes keys of one universe distinct; host and
// tail are seeded noise, so that another seed gives other keys and the hashes
// see no structure.
func appendKey(dst []byte, seed uint64, uni byte, idx uint64) []byte {
	x := mix64(seed ^ mix64(idx+uint64(uni)<<56+0x9e3779b97f4a7c15))
	var k [47]byte
	copy(k[:], "http://h000.ex.org/u/")
	k[8], k[9], k[10] = hexDigits[x>>52&15], hexDigits[x>>48&15], hexDigits[x>>44&15]
	k[19] = uni
	for i := 0; i < 10; i++ {
		k[21+i] = hexDigits[idx>>uint(36-4*i)&15]
	}
	// The tail is the low 1 to 16 hex digits of x, lowest first; all 16
	// are written and the length cuts them.
	for i := 0; i < 16; i++ {
		k[31+i] = hexDigits[x>>uint(4*i)&15]
	}
	return append(dst, k[:32+x>>60]...)
}

// keyBatch holds the keys of one request in one reusable backing buffer.
type keyBatch struct {
	buf  []byte
	ends []int
	keys [][]byte
}

func (b *keyBatch) reset() {
	b.buf = b.buf[:0]
	b.ends = b.ends[:0]
}

func (b *keyBatch) add(seed uint64, uni byte, idx uint64) {
	b.buf = appendKey(b.buf, seed, uni, idx)
	b.ends = append(b.ends, len(b.buf))
}

// slices returns the batch as key slices aliasing the backing buffer; they
// are valid until the next reset.
func (b *keyBatch) slices() [][]byte {
	b.keys = b.keys[:0]
	start := 0
	for _, end := range b.ends {
		b.keys = append(b.keys, b.buf[start:end:end])
		start = end
	}
	return b.keys
}
