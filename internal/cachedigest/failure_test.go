package cachedigest

import (
	"bytes"
	"testing"
	"time"

	"evilbloom/internal/bitset"
	"evilbloom/internal/urlgen"
)

// Stale digests: Squid rebuilds hourly, so a sibling's digest can advertise
// objects long evicted. Every such hit is a wasted round trip even without
// an adversary — the attack only amplifies an existing failure mode.
func TestStaleDigestWastesRoundTrips(t *testing.T) {
	net := &Network{RTT: 10 * time.Millisecond}
	origin := &Origin{}
	p1 := NewProxy("p1", net, origin)
	p2 := NewProxy("p2", net, origin)
	Peer(p1, p2)

	gen := urlgen.New(1)
	urls := gen.URLs(50)
	for _, u := range urls {
		p1.Fetch(u)
	}
	if err := ExchangeDigests(p1, p2); err != nil {
		t.Fatal(err)
	}
	// p1 "evicts" everything (fresh proxy with the old digest still out).
	stale := NewProxy("p1b", net, origin)
	p2.siblings = []*Proxy{stale}
	p2.digests[stale] = p2.digests[p1]

	for _, u := range urls {
		if _, src := p2.Fetch(u); src == SourceSibling {
			t.Fatal("fetched from a sibling that no longer has the object")
		}
	}
	if p2.Stats.FalseSiblingHits != len(urls) {
		t.Errorf("false hits = %d, want %d (every probe hit the stale digest)",
			p2.Stats.FalseSiblingHits, len(urls))
	}
}

// Digest exchange over a real serialization boundary: marshal, corrupt,
// unmarshal — corruption must surface as an error, not silent misbehaviour.
func TestDigestSerializationCorruption(t *testing.T) {
	d, err := NewDigest(100)
	if err != nil {
		t.Fatal(err)
	}
	d.Add("GET", "http://a.test/")
	data := d.Bloom().Bits().AppendBinary(nil)
	load := func(data []byte) error {
		return bitset.New(d.Bloom().M()).Load(bytes.NewReader(data), make([]byte, 64))
	}
	// Round trip works.
	if err := load(data); err != nil {
		t.Fatalf("clean load: %v", err)
	}
	// Truncation is detected.
	if err := load(data[:len(data)-3]); err == nil {
		t.Error("truncated digest accepted")
	}
	// Length-field corruption is detected.
	corrupt := append([]byte(nil), data...)
	corrupt[0] ^= 0xff
	if err := load(corrupt); err == nil {
		t.Error("length-corrupted digest accepted")
	}
}

// Three siblings: a digest hit on any of them triggers a probe; false
// positives multiply with the peer count, so pollution against one cache
// taxes the whole mesh.
func TestThreeProxyMesh(t *testing.T) {
	net := &Network{RTT: 10 * time.Millisecond}
	origin := &Origin{}
	p1 := NewProxy("p1", net, origin)
	p2 := NewProxy("p2", net, origin)
	p3 := NewProxy("p3", net, origin)
	Peer(p1, p2)
	Peer(p1, p3)
	Peer(p2, p3)

	gen := urlgen.New(7)
	shared := gen.URLs(30)
	for _, u := range shared {
		p2.Fetch(u)
	}
	only3 := gen.URLs(30)
	for _, u := range only3 {
		p3.Fetch(u)
	}
	for _, pair := range [][2]*Proxy{{p1, p2}, {p1, p3}, {p2, p3}} {
		if err := ExchangeDigests(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	// p1 finds p2's objects via digests and p3's likewise.
	if _, src := p1.Fetch(shared[0]); src != SourceSibling {
		t.Errorf("shared object came from %v", src)
	}
	if _, src := p1.Fetch(only3[0]); src != SourceSibling {
		t.Errorf("p3's object came from %v", src)
	}
	// A miss everywhere goes to the origin without lying digest hits
	// (digests are lightly loaded, false positives unlikely but tolerated).
	if _, src := p1.Fetch("http://nowhere.test/"); src == SourceSibling {
		t.Error("missing object served from a sibling")
	}
}

// An adversarial sibling can ship an all-ones digest (the LOAF failure from
// §4): every request then probes it, wasting a round trip each time. This
// is why the paper's threat model requires the filter holder to be trusted.
func TestAllOnesDigestFromUntrustedSibling(t *testing.T) {
	net := &Network{RTT: 10 * time.Millisecond}
	origin := &Origin{}
	honest := NewProxy("honest", net, origin)
	evil := NewProxy("evil", net, origin)
	Peer(honest, evil)

	forged, err := NewDigest(100)
	if err != nil {
		t.Fatal(err)
	}
	for i, bits := 0, forged.Bloom().Bits(); i < bits.Words(); i++ {
		bits.SetWord(i, ^uint64(0))
	}
	honest.digests[evil] = forged

	gen := urlgen.New(2)
	const probes = 100
	for i := 0; i < probes; i++ {
		honest.Fetch(gen.URL())
	}
	if honest.Stats.SiblingProbes != probes {
		t.Errorf("probes = %d, want %d (all-ones digest claims everything)",
			honest.Stats.SiblingProbes, probes)
	}
	if honest.Stats.FalseSiblingHits != probes {
		t.Errorf("false hits = %d, want %d", honest.Stats.FalseSiblingHits, probes)
	}
	if net.Elapsed() < time.Duration(probes)*net.RTT {
		t.Errorf("wasted time %v below %d RTTs", net.Elapsed(), probes)
	}
}
