package cachedigest

import (
	"bytes"
	"errors"
	"testing"

	"evilbloom/internal/bitset"
)

// buildDeltaBase opens the standard two-shard test envelope as a held
// digest (generation 42, words-per-shard 2 → 4 global words).
func buildDeltaBase(t *testing.T) (*PeerDigest, EnvelopeInfo) {
	t.Helper()
	env, info := buildEnvelope(t)
	d, err := OpenEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	return d, info
}

func TestDeltaRoundTrip(t *testing.T) {
	words := []DeltaWord{{Index: 0, Value: 0xdeadbeef}, {Index: 3, Value: 1}}
	frame, err := EncodeDelta(DeltaInfo{BaseGeneration: 42, NewGeneration: 57, NewCount: 9, TotalWords: 4}, words)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(frame, []byte(DeltaFrame.Magic)) {
		t.Fatal("encoded delta does not carry the delta magic")
	}
	info, got, err := DecodeDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	if info.BaseGeneration != 42 || info.NewGeneration != 57 || info.NewCount != 9 ||
		info.TotalWords != 4 || info.Words != 2 {
		t.Errorf("header round trip: %+v", info)
	}
	if len(got) != 2 || got[0] != words[0] || got[1] != words[1] {
		t.Errorf("word round trip: %+v", got)
	}
}

func TestEncodeDeltaValidation(t *testing.T) {
	info := DeltaInfo{BaseGeneration: 1, NewGeneration: 2, TotalWords: 4}
	if _, err := EncodeDelta(info, []DeltaWord{{Index: 4}}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := EncodeDelta(info, []DeltaWord{{Index: 2}, {Index: 1}}); err == nil {
		t.Error("descending indexes accepted")
	}
	if _, err := EncodeDelta(info, []DeltaWord{{Index: 1}, {Index: 1}}); err == nil {
		t.Error("duplicate index accepted")
	}
}

// Applying a delta must produce exactly the digest a full envelope of the
// new state would: same generation, count, weight, and membership answers.
func TestApplyDeltaMatchesFullEnvelope(t *testing.T) {
	held, info := buildDeltaBase(t)

	// The new state: shard 0 gains bit 5 (word 0), shard 1 clears bit 127
	// and gains bit 64 (words 3 and... bit 64 is word 1 of shard 1 →
	// global word 3; bit 127 is also word 1 → both edits land in global
	// word 3). Rebuild the shard bitsets the server would have.
	a2, b2 := bitset.New(128), bitset.New(128)
	a2.Set(1)
	a2.Set(77)
	a2.Set(5)
	b2.Set(64)
	newInfo := info
	newInfo.Generation = 50
	newInfo.Count = 4
	fullEnv, err := EncodeEnvelope(newInfo, []*bitset.BitSet{a2, b2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := OpenEnvelope(fullEnv)
	if err != nil {
		t.Fatal(err)
	}

	// The delta: global word 0 (shard 0 word 0) and global word 3 (shard 1
	// word 1) changed.
	frame, err := EncodeDelta(DeltaInfo{BaseGeneration: 42, NewGeneration: 50, NewCount: 4, TotalWords: 4},
		[]DeltaWord{{Index: 0, Value: a2.Word(0)}, {Index: 3, Value: b2.Word(1)}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := held.ApplyDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation() != 50 || got.Count() != 4 {
		t.Errorf("applied digest at generation %d count %d, want 50/4", got.Generation(), got.Count())
	}
	if got.Weight() != want.Weight() {
		t.Errorf("applied weight %d, full-envelope weight %d", got.Weight(), want.Weight())
	}
	for i := 0; i < 64; i++ {
		item := []byte{byte(i), byte(i >> 3), 'x'}
		if got.Test(item) != want.Test(item) {
			t.Fatalf("membership diverges from full envelope on item %v", item)
		}
	}
	// Copy-on-write: the held digest is untouched — the routing path tests
	// it concurrently without a lock, so mutation would be a race.
	if held.Generation() != 42 || held.Weight() != 3 {
		t.Errorf("ApplyDelta mutated the held digest: gen %d weight %d", held.Generation(), held.Weight())
	}
	// A delta is word overwrites, so replaying it is idempotent.
	again, err := got.ApplyDelta(frame)
	if err == nil {
		if again.Weight() != got.Weight() {
			t.Errorf("replay changed weight: %d vs %d", again.Weight(), got.Weight())
		}
	} else if !errors.Is(err, ErrDeltaGap) {
		// got is at generation 50, the frame's base is 42 — a gap is the
		// expected refusal; anything else is a decode bug.
		t.Errorf("replay: %v", err)
	}
}

func TestApplyDeltaGenerationGap(t *testing.T) {
	held, _ := buildDeltaBase(t)
	frame, err := EncodeDelta(DeltaInfo{BaseGeneration: 41, NewGeneration: 50, TotalWords: 4},
		[]DeltaWord{{Index: 0, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = held.ApplyDelta(frame)
	if !errors.Is(err, ErrDeltaGap) {
		t.Errorf("gap apply: %v, want ErrDeltaGap", err)
	}
	// A gap is recoverable (refetch full), so it must also read as
	// Unusable, never Corrupt.
	if !errors.Is(err, ErrEnvelopeUnusable) {
		t.Errorf("ErrDeltaGap does not wrap ErrEnvelopeUnusable: %v", err)
	}
}

func TestApplyDeltaGeometryMismatch(t *testing.T) {
	held, _ := buildDeltaBase(t)
	frame, err := EncodeDelta(DeltaInfo{BaseGeneration: 42, NewGeneration: 50, TotalWords: 8},
		[]DeltaWord{{Index: 7, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = held.ApplyDelta(frame)
	if !errors.Is(err, ErrEnvelopeUnusable) || errors.Is(err, ErrDeltaGap) {
		t.Errorf("geometry mismatch: %v, want ErrEnvelopeUnusable (not a gap)", err)
	}
}

func TestSealRoundTrip(t *testing.T) {
	key := []byte("mesh-secret")
	frame, _ := buildEnvelope(t)
	sealed := Seal(frame, key)
	if len(sealed) != len(frame)+MACTrailerLen {
		t.Fatalf("sealed length %d, want frame %d + trailer %d", len(sealed), len(frame), MACTrailerLen)
	}
	got, err := Unseal(sealed, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Error("unsealed frame differs from the original")
	}
}

func TestUnsealRejectsTampering(t *testing.T) {
	key := []byte("mesh-secret")
	frame, _ := buildEnvelope(t)
	sealed := Seal(frame, key)

	cases := map[string][]byte{
		"truncated MAC":     sealed[:len(sealed)-1],
		"missing MAC":       sealed[:len(frame)],
		"empty":             nil,
		"flipped payload":   flipByte(sealed, 20),
		"flipped MAC":       flipByte(sealed, len(sealed)-1),
		"flipped magic":     flipByte(sealed, 0),
		"extended by a nul": append(append([]byte(nil), sealed...), 0),
	}
	for name, data := range cases {
		if _, err := Unseal(data, key); !errors.Is(err, ErrEnvelopeUnauthenticated) {
			t.Errorf("%s: %v, want ErrEnvelopeUnauthenticated", name, err)
		}
	}
	if _, err := Unseal(sealed, []byte("other-secret")); !errors.Is(err, ErrEnvelopeUnauthenticated) {
		t.Errorf("wrong key: %v, want ErrEnvelopeUnauthenticated", err)
	}
}

func flipByte(data []byte, i int) []byte {
	cp := append([]byte(nil), data...)
	cp[i] ^= 0x40
	return cp
}
