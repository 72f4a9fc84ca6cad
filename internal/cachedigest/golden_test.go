package cachedigest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"evilbloom/internal/bitset"
	"evilbloom/internal/hashes"
)

// updateGoldens rewrites testdata/golden from this tree's encoders. The
// committed files were written by an older release (testdata/golden/README.md
// has the recipe); rewriting them from the current tree proves nothing.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden from this tree's encoders")

// goldenFrames builds each golden frame through the public encoders. Only
// API that predates the shared frame codec is used here, so the same
// function writes the goldens in an older checkout.
func goldenFrames(t *testing.T) map[string][]byte {
	t.Helper()
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bits := func(m uint64, set ...uint64) *bitset.BitSet {
		bs := bitset.New(m)
		for _, i := range set {
			bs.Set(i)
		}
		return bs
	}

	murmur := EnvelopeInfo{
		Layout:     hashes.LayoutV1,
		Family:     FamilyMurmurDouble,
		Generation: 7,
		Seed:       0x5eed,
		Shards:     2,
		ShardBits:  256,
		K:          5,
		Count:      3,
	}
	copy(murmur.RouteKey[:], "golden-route-key")

	blocked := EnvelopeInfo{
		Layout:        hashes.LayoutV2,
		Family:        FamilyMurmurDouble,
		SourceVariant: SourceVariantBlocked,
		Generation:    12,
		Seed:          11,
		Shards:        1,
		ShardBits:     1024,
		K:             4,
		Count:         2,
	}

	squid, err := NewDigest(40)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"http://a.example/", "http://b.example/x", "http://c.example/y?z"} {
		squid.Add("GET", u)
	}

	return map[string][]byte{
		"envelope-murmur-2shard.bin": must(EncodeEnvelope(murmur, []*bitset.BitSet{
			bits(256, 0, 63, 64, 200), bits(256, 1, 255),
		})),
		"envelope-md5split.bin": must(squid.Envelope(3)),
		"envelope-blocked.bin": must(EncodeEnvelope(blocked, []*bitset.BitSet{
			bits(1024, 5, 511, 512, 1023),
		})),
		// A delta against envelope-murmur-2shard.bin: 2 shards × 4 words.
		"delta.bin": must(EncodeDelta(
			DeltaInfo{BaseGeneration: 7, NewGeneration: 9, NewCount: 5, TotalWords: 8},
			[]DeltaWord{{Index: 1, Value: 0x8000000000000001}, {Index: 6, Value: 0xf0}})),
	}
}

// The digest formats' bytes are a wire contract between releases: a node
// must decode what an older sibling sends and send what it decodes. The
// goldens were written by an older release; today's encoders must
// reproduce them byte for byte and today's decoders must accept them.
func TestDigestFrameGoldens(t *testing.T) {
	frames := goldenFrames(t)
	dir := filepath.Join("testdata", "golden")
	if *updateGoldens {
		for name, b := range frames {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	golden := make(map[string][]byte, len(frames))
	for name, b := range frames {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s: encoder output (%d bytes) differs from the golden (%d bytes)", name, len(b), len(want))
		}
		golden[name] = want
	}

	for _, name := range []string{"envelope-murmur-2shard.bin", "envelope-md5split.bin", "envelope-blocked.bin"} {
		if _, err := OpenEnvelope(golden[name]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	held, err := OpenEnvelope(golden["envelope-murmur-2shard.bin"])
	if err != nil {
		t.Fatal(err)
	}
	next, err := held.ApplyDelta(golden["delta.bin"])
	if err != nil {
		t.Fatalf("delta.bin: %v", err)
	}
	if next.Generation() != 9 || next.Count() != 5 {
		t.Errorf("delta.bin applied: generation %d count %d, want 9 and 5", next.Generation(), next.Count())
	}
	// Word 1 becomes bits 64 and 127, word 6 (shard 1's word 2) bits
	// 132-135; the held bits 0, 63, 200 and shard 1's 1 and 255 stay.
	if w := next.Weight(); w != 11 {
		t.Errorf("delta.bin applied: weight %d, want 11", w)
	}
}
