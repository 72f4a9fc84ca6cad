package service

import (
	"bytes"
	"fmt"
	"testing"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/core"
	"evilbloom/internal/urlgen"
)

// blockedGeometries spans the dimensions that matter to the blocked layout:
// single- and multi-shard stores, one-block and many-block shards, varying
// k, and a ShardBits that is not a multiple of the block size (the config
// layer must round it up rather than reject it).
var blockedGeometries = []struct {
	shards    int
	shardBits uint64
	k         int
}{
	{1, core.BlockBits, 3},
	{2, 4 * core.BlockBits, 4},
	{8, 16 * core.BlockBits, 5},
	{4, 3000, 4}, // rounds up to 3072 = 6 blocks
}

func blockedCfg(shards int, shardBits uint64, k int) Config {
	return Config{
		Variant:   VariantBlocked,
		Shards:    shards,
		ShardBits: shardBits,
		HashCount: k,
		Mode:      ModeNaive,
		Seed:      21,
		RouteKey:  []byte("fedcba9876543210"),
	}
}

// TestBlockedSnapshotRoundTripAcrossGeometries mirrors the persist matrix
// for the blocked variant's geometry axis: a snapshot restored into a fresh
// store of the same configuration re-serializes byte-identically and
// answers membership identically.
func TestBlockedSnapshotRoundTripAcrossGeometries(t *testing.T) {
	for _, g := range blockedGeometries {
		t.Run(fmt.Sprintf("shards=%d-bits=%d-k=%d", g.shards, g.shardBits, g.k), func(t *testing.T) {
			cfg := blockedCfg(g.shards, g.shardBits, g.k)
			a, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.ShardBits(); got%core.BlockBits != 0 {
				t.Fatalf("shard bits %d not rounded to a block multiple", got)
			}
			gen := urlgen.New(33)
			items := make([][]byte, 300)
			for i := range items {
				items[i] = gen.Next()
			}
			a.AddBatch(items)

			snap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.restore(snap); err != nil {
				t.Fatal(err)
			}
			again, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, again) {
				t.Error("restored store re-serializes differently")
			}
			probe := urlgen.New(44)
			for i := 0; i < 300; i++ {
				it := probe.Next()
				if a.Test(it) != b.Test(it) {
					t.Fatalf("membership of probe %q diverges after restore", it)
				}
			}
			for _, it := range items {
				if !b.Test(it) {
					t.Fatalf("restored store lost %q", it)
				}
			}
		})
	}
}

// TestBlockedDigestExportParity pins the §7 exchange for the blocked
// variant: a peer evaluating the exported digest must answer every
// membership query exactly as the exporting filter does — true positives
// AND the filter's own false positives, since a digest is a bit-exact
// projection of occupancy. This is the property the BlockedPosition remap
// in cachedigest exists for; without it every multi-probe lookup would miss.
func TestBlockedDigestExportParity(t *testing.T) {
	for _, g := range blockedGeometries {
		t.Run(fmt.Sprintf("shards=%d-bits=%d-k=%d", g.shards, g.shardBits, g.k), func(t *testing.T) {
			s, err := NewSharded(blockedCfg(g.shards, g.shardBits, g.k))
			if err != nil {
				t.Fatal(err)
			}
			gen := urlgen.New(55)
			items := make([][]byte, 250)
			for i := range items {
				items[i] = gen.Next()
			}
			s.AddBatch(items)

			env, gen64, err := s.DigestEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			pd, err := cachedigest.OpenEnvelope(env)
			if err != nil {
				t.Fatal(err)
			}
			if pd.Generation() != gen64 {
				t.Fatalf("digest generation %d, export reported %d", pd.Generation(), gen64)
			}
			for _, it := range items {
				if !pd.Test(it) {
					t.Fatalf("digest misses added item %q", it)
				}
			}
			probe := urlgen.New(66)
			for i := 0; i < 2000; i++ {
				it := probe.Next()
				if got, want := pd.Test(it), s.Test(it); got != want {
					t.Fatalf("digest and filter disagree on %q: digest %v, filter %v", it, got, want)
				}
			}
		})
	}
}

// TestBlockedDigestEnvelopeValidation: a blocked-source envelope whose
// shard size is not a multiple of the block size cannot have been produced
// by a real exporter and must be refused at decode time.
func TestBlockedDigestEnvelopeValidation(t *testing.T) {
	s, err := NewSharded(blockedCfg(2, 4*core.BlockBits, 4))
	if err != nil {
		t.Fatal(err)
	}
	s.Add([]byte("x"))
	env, _, err := s.DigestEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	info, err := cachedigest.DecodeEnvelopeInfo(env)
	if err != nil {
		t.Fatal(err)
	}
	if info.SourceVariant != cachedigest.SourceVariantBlocked {
		t.Fatalf("source variant %d, want %d", info.SourceVariant, cachedigest.SourceVariantBlocked)
	}
}
