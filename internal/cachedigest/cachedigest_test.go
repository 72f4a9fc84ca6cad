package cachedigest

import (
	"math"
	"testing"
	"time"

	"evilbloom/internal/core"
	"evilbloom/internal/urlgen"
)

func TestDigestGeometry(t *testing.T) {
	// §7: for a 151-entry cache Squid builds a 5·151+7 = 762-bit digest.
	d, err := NewDigest(151)
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != 762 {
		t.Errorf("digest size = %d bits, want 762", d.M())
	}
	if d.Bloom().K() != 4 {
		t.Errorf("k = %d, want 4", d.Bloom().K())
	}
}

func TestDigestAddTest(t *testing.T) {
	d, err := NewDigest(100)
	if err != nil {
		t.Fatal(err)
	}
	d.Add("GET", "http://example.com/")
	if !d.Test("GET", "http://example.com/") {
		t.Error("false negative")
	}
	if d.Test("HEAD", "http://example.com/") {
		t.Log("method collision (acceptable false positive)")
	}
	if data := d.Bloom().Bits().AppendBinary(nil); len(data) == 0 {
		t.Error("empty encoding")
	}
}

// §7: Squid's 5n+7 sizing yields f ≈ 0.09 for n = 200, versus f = 0.5⁴ ≈
// 0.0625 at the optimal size m = kn/ln2 ≈ 6n the paper recommends. (The
// paper quotes "0.03, a factor of 3"; 0.03 corresponds to m ≈ 7.3n — see
// EXPERIMENTS.md. The direction and rough magnitude of the penalty hold.)
func TestSquidSizingIsSuboptimal(t *testing.T) {
	const n = 200
	m := uint64(BitsPerEntry*n + DigestSlack)
	squidFPR := core.FPR(m, n, 4)
	if math.Abs(squidFPR-0.09) > 0.02 {
		t.Errorf("squid FPR = %v, paper says ≈0.09", squidFPR)
	}
	optimalM := uint64(math.Ceil(4 * n / math.Ln2)) // ≈ 6n for k=4
	atOptimalSize := core.FPR(optimalM, n, 4)
	if math.Abs(atOptimalSize-0.0625) > 0.005 {
		t.Errorf("FPR at optimal 6n sizing = %v, want ≈0.0625", atOptimalSize)
	}
	if squidFPR < atOptimalSize*1.3 {
		t.Errorf("sizing penalty only %.2fx", squidFPR/atOptimalSize)
	}
}

func TestProxyFetchPath(t *testing.T) {
	net := &Network{RTT: 10 * time.Millisecond}
	origin := &Origin{}
	p1 := NewProxy("p1", net, origin)
	p2 := NewProxy("p2", net, origin)
	Peer(p1, p2)

	// First fetch: origin.
	body, src := p1.Fetch("http://a.test/")
	if src != SourceOrigin || body == "" {
		t.Fatalf("first fetch: %v", src)
	}
	// Second fetch: local.
	if _, src := p1.Fetch("http://a.test/"); src != SourceLocal {
		t.Fatalf("second fetch: %v", src)
	}
	// Sibling path after digest exchange.
	if err := ExchangeDigests(p1, p2); err != nil {
		t.Fatal(err)
	}
	if _, src := p2.Fetch("http://a.test/"); src != SourceSibling {
		t.Fatalf("sibling fetch: %v", src)
	}
	if p2.Stats.SiblingHits != 1 || p2.Stats.FalseSiblingHits != 0 {
		t.Errorf("stats: %+v", p2.Stats)
	}
	if !p2.Cached("http://a.test/") {
		t.Error("sibling fetch not cached")
	}
	if p1.CacheLen() != 1 {
		t.Errorf("p1 cache len = %d", p1.CacheLen())
	}
}

func TestNetworkAccounting(t *testing.T) {
	n := &Network{RTT: 10 * time.Millisecond}
	n.RoundTrip()
	n.RoundTrip()
	if n.Trips != 2 || n.Elapsed() != 20*time.Millisecond {
		t.Errorf("trips=%d elapsed=%v", n.Trips, n.Elapsed())
	}
}

func TestSourceString(t *testing.T) {
	if SourceLocal.String() != "local" || SourceSibling.String() != "sibling" ||
		SourceOrigin.String() != "origin" || Source(99).String() == "" {
		t.Error("Source strings wrong")
	}
}

// A proxy with an empty sibling digest never probes the sibling.
func TestEmptyDigestNeverProbes(t *testing.T) {
	net := &Network{RTT: time.Millisecond}
	origin := &Origin{}
	p1 := NewProxy("p1", net, origin)
	p2 := NewProxy("p2", net, origin)
	Peer(p1, p2)
	if err := ExchangeDigests(p1, p2); err != nil {
		t.Fatal(err)
	}
	gen := urlgen.New(3)
	for i := 0; i < 50; i++ {
		p2.Fetch(gen.URL())
	}
	if p2.Stats.SiblingProbes != 0 {
		t.Errorf("empty digest triggered %d probes", p2.Stats.SiblingProbes)
	}
}
