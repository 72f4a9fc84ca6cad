package cachedigest

import (
	"fmt"
	"time"

	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// BitsPerEntry and DigestSlack are Squid's sizing constants: m = 5n + 7.
const (
	BitsPerEntry = 5
	DigestSlack  = 7
)

// Key builds the store key Squid hashes: retrieval method and URL.
func Key(method, url string) []byte {
	return []byte(method + " " + url)
}

// Digest is a Squid cache digest.
type Digest struct {
	bloom *core.Bloom
}

// NewDigest sizes a digest for capacity cached objects: m = 5·capacity + 7.
func NewDigest(capacity uint64) (*Digest, error) {
	m := BitsPerEntry*capacity + DigestSlack
	fam, err := hashes.NewMD5Split(m)
	if err != nil {
		return nil, fmt.Errorf("cachedigest: sizing digest for %d entries: %w", capacity, err)
	}
	return &Digest{bloom: core.NewBloom(fam)}, nil
}

// Add inserts the store key for (method, url).
func (d *Digest) Add(method, url string) { d.bloom.Add(Key(method, url)) }

// Test reports whether (method, url) may be in the summarized cache.
func (d *Digest) Test(method, url string) bool { return d.bloom.Test(Key(method, url)) }

// M returns the digest size in bits.
func (d *Digest) M() uint64 { return d.bloom.M() }

// Weight returns the number of set bits.
func (d *Digest) Weight() uint64 { return d.bloom.Weight() }

// EstimatedFPR returns (W/m)^4 for the current pattern.
func (d *Digest) EstimatedFPR() float64 { return d.bloom.EstimatedFPR() }

// Bloom exposes the underlying filter (adversaries model it; §4's threat
// model makes the implementation public).
func (d *Digest) Bloom() *core.Bloom { return d.bloom }

// Network accounts simulated round trips between peers. The paper's testbed
// measured ≈10 ms per unnecessary sibling hit.
type Network struct {
	// RTT is the simulated peer-to-peer round-trip time.
	RTT time.Duration
	// Trips counts round trips consumed.
	Trips int
}

// RoundTrip consumes one round trip and returns its latency.
func (n *Network) RoundTrip() time.Duration {
	n.Trips++
	return n.RTT
}

// Elapsed returns the total simulated network time spent.
func (n *Network) Elapsed() time.Duration {
	return time.Duration(n.Trips) * n.RTT
}

// Origin serves every URL (an HTTP server answering all GETs, as in the
// paper's LAN setup).
type Origin struct {
	// Fetches counts origin hits.
	Fetches int
}

// Get returns a synthetic body for url.
func (o *Origin) Get(url string) string {
	o.Fetches++
	return "body:" + url
}

// Source says where a proxy found an object.
type Source int

// Fetch outcomes.
const (
	SourceLocal Source = iota + 1
	SourceSibling
	SourceOrigin
)

func (s Source) String() string {
	switch s {
	case SourceLocal:
		return "local"
	case SourceSibling:
		return "sibling"
	case SourceOrigin:
		return "origin"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Stats aggregates one proxy's traffic counters.
type Stats struct {
	// LocalHits counts requests served from the proxy's own cache.
	LocalHits int
	// SiblingProbes counts digest hits that triggered a query to a sibling.
	SiblingProbes int
	// SiblingHits counts probes the sibling actually satisfied.
	SiblingHits int
	// FalseSiblingHits counts probes wasted on digest false positives.
	FalseSiblingHits int
	// OriginFetches counts requests that fell through to the origin.
	OriginFetches int
}

// Proxy is one caching proxy with sibling digests.
type Proxy struct {
	// Name labels the proxy in reports.
	Name string

	cache    map[string]string
	order    []string // insertion order, for digest rebuilds
	siblings []*Proxy
	digests  map[*Proxy]*Digest
	net      *Network
	origin   *Origin

	// Stats accumulates traffic counters.
	Stats Stats
}

// NewProxy builds an empty proxy attached to a shared network and origin.
func NewProxy(name string, net *Network, origin *Origin) *Proxy {
	return &Proxy{
		Name:    name,
		cache:   make(map[string]string),
		digests: make(map[*Proxy]*Digest),
		net:     net,
		origin:  origin,
	}
}

// Peer registers both proxies as siblings of each other.
func Peer(a, b *Proxy) {
	a.siblings = append(a.siblings, b)
	b.siblings = append(b.siblings, a)
}

// CacheLen returns the number of cached objects.
func (p *Proxy) CacheLen() int { return len(p.cache) }

// Cached reports whether url is in the local cache.
func (p *Proxy) Cached(url string) bool {
	_, ok := p.cache[url]
	return ok
}

// store caches a body under url.
func (p *Proxy) store(url, body string) {
	if _, ok := p.cache[url]; !ok {
		p.order = append(p.order, url)
	}
	p.cache[url] = body
}

// BuildDigest summarizes the current cache the way Squid does at its hourly
// rebuild: a fresh 5n+7-bit filter over every cached key.
func (p *Proxy) BuildDigest() (*Digest, error) {
	n := uint64(len(p.cache))
	if n == 0 {
		n = 1
	}
	d, err := NewDigest(n)
	if err != nil {
		return nil, err
	}
	for _, url := range p.order {
		d.Add("GET", url)
	}
	return d, nil
}

// ExchangeDigests rebuilds both proxies' digests and hands them to each
// other (one round trip each way).
func ExchangeDigests(a, b *Proxy) error {
	da, err := a.BuildDigest()
	if err != nil {
		return err
	}
	db, err := b.BuildDigest()
	if err != nil {
		return err
	}
	a.net.RoundTrip()
	b.digests[a] = da
	b.net.RoundTrip()
	a.digests[b] = db
	return nil
}

// SiblingDigest returns the digest p last received from sib (nil before
// the first exchange).
func (p *Proxy) SiblingDigest(sib *Proxy) *Digest { return p.digests[sib] }

// Fetch resolves url for a client: local cache, then siblings whose digest
// claims the object (each probe costs a round trip; false positives waste
// it), then the origin.
func (p *Proxy) Fetch(url string) (string, Source) {
	if body, ok := p.cache[url]; ok {
		p.Stats.LocalHits++
		return body, SourceLocal
	}
	for _, sib := range p.siblings {
		digest, ok := p.digests[sib]
		if !ok || !digest.Test("GET", url) {
			continue
		}
		p.Stats.SiblingProbes++
		p.net.RoundTrip() // ICP-style query to the sibling
		if body, ok := sib.cache[url]; ok {
			p.Stats.SiblingHits++
			p.net.RoundTrip() // transfer
			p.store(url, body)
			return body, SourceSibling
		}
		p.Stats.FalseSiblingHits++ // the digest lied: wasted round trip
	}
	body := p.origin.Get(url)
	p.Stats.OriginFetches++
	p.store(url, body)
	return body, SourceOrigin
}
