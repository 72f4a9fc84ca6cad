package cachedigest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// chunkReader serves data in chunks whose sizes cycle through cuts (each
// byte b is a chunk of b+1 bytes), returning io.EOF with the last chunk, and
// counts what it has served.
type chunkReader struct {
	data   []byte
	cuts   []byte
	next   int
	served int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if len(r.cuts) > 0 {
		n = min(n, int(r.cuts[r.next%len(r.cuts)])+1)
		r.next++
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	r.served += n
	if len(r.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// errRefused is the fuzz harness's budget refusal.
var errRefused = errors.New("admit refused")

// frameFormats are the formats a peer fetch reads, in its order.
var frameFormats = []*Format{DeltaFrame, EnvelopeFrame}

// openWhole is the in-memory reference: the format data's magic names (the
// first one when none does) opens all of data.
func openWhole(data []byte) (hdr, payload []byte, err error) {
	f := frameFormats[0]
	for _, c := range frameFormats {
		if bytes.HasPrefix(data, []byte(c.Magic)) {
			f = c
		}
	}
	return f.Open(data)
}

// impliedLen is the frame length data's header implies, by the format its
// magic names (-1 when there is no complete header or Size refuses it).
func impliedLen(data []byte) int {
	for _, f := range frameFormats {
		if len(data) >= f.HeaderLen && bytes.HasPrefix(data, []byte(f.Magic)) {
			if n, err := f.frameLen(data[:f.HeaderLen]); err == nil {
				return n
			}
		}
	}
	return -1
}

// sameSentinel reports whether two errors are nil together or wrap the same
// frame sentinel.
func sameSentinel(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, s := range []error{ErrEnvelopeCorrupt, ErrEnvelopeUnusable} {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return true
}

// streamAgreesWithOpen runs ReadFrame in consumer mode over data served in
// cuts-sized chunks: it must accept exactly what Open accepts, fail with
// the same sentinel, and hand its consumer exactly Open's payload; and a
// consumer that stops one byte short of the payload is refused.
func streamAgreesWithOpen(t *testing.T, data, cuts, wantHdr, wantPayload []byte, wantErr error) {
	t.Helper()
	var seen []byte
	hdr, _, err := ReadFrame(&chunkReader{data: data, cuts: cuts}, false, func(hdr []byte) (func(io.Reader) error, error) {
		if impliedLen(hdr) > len(data) {
			return nil, errRefused // the input cannot fill it: Open refuses it too
		}
		return func(r io.Reader) error {
			var err error
			seen, err = io.ReadAll(r)
			return err
		}, nil
	}, frameFormats...)
	switch {
	case errors.Is(err, errRefused):
		if wantErr == nil {
			t.Fatal("consumer mode: refused a frame Open accepts")
		}
	case !sameSentinel(err, wantErr):
		t.Fatalf("consumer mode: %v; Open: %v", err, wantErr)
	case err == nil && (!bytes.Equal(hdr, wantHdr) || !bytes.Equal(seen, wantPayload)):
		t.Fatal("consumer mode and Open disagree on header or payload")
	}
	if wantErr != nil || len(wantPayload) == 0 {
		return
	}
	_, _, err = ReadFrame(&chunkReader{data: data, cuts: cuts}, false, func([]byte) (func(io.Reader) error, error) {
		return func(r io.Reader) error {
			_, err := io.ReadFull(r, make([]byte, len(wantPayload)-1))
			return err
		}, nil
	}, frameFormats...)
	if !errors.Is(err, ErrEnvelopeCorrupt) {
		t.Fatalf("a consumer that stopped short: %v, want ErrEnvelopeCorrupt", err)
	}
}

// FuzzFrame checks the one stream reader against the one in-memory opener.
// For arbitrary bytes served in arbitrary chunks:
//
//   - ReadFrame and then Open accept exactly what Open accepts on all of the
//     bytes, return the same bytes and fail with the same sentinel;
//   - admit sees exactly the header, with nothing past it read, and before
//     a payload-sized allocation; a refusal from admit is returned as it is
//     and reads nothing more;
//   - a MAC trailer's worth of extra bytes, read as sealed, comes back
//     appended to the same frame;
//   - in consumer mode the payload streams, and the same holds
//     (streamAgreesWithOpen).
func FuzzFrame(f *testing.F) {
	env := fuzzEnvelope()
	delta := fuzzDelta(42)
	seeds := [][]byte{env, delta, Seal(env, fuzzKey)}
	if golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.bin")); err == nil {
		for _, path := range golden {
			b, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, b)
		}
	}
	for _, s := range seeds {
		f.Add(s, []byte{0}, false)
		f.Add(s, []byte{6, 40, 200}, false)
		f.Add(s, []byte{87}, true)
		f.Add(s[:len(s)-1], []byte{3}, false)
		f.Add(append(append([]byte(nil), s...), 0), []byte{255}, false)
	}
	f.Add(env[:EnvelopeHeaderLen], []byte{10}, false)
	f.Add(delta[:DeltaHeaderLen-1], []byte{1}, false)
	// A header claiming a 128 MiB payload: admit must see it before any
	// buffer of that size exists.
	huge := append([]byte(nil), env[:EnvelopeHeaderLen]...)
	binary.LittleEndian.PutUint64(huge[32:], 1)     // one shard
	binary.LittleEndian.PutUint64(huge[40:], 1<<30) // 2^30 bits
	binary.LittleEndian.PutUint64(huge[80:], 8+(1<<30)/8)
	f.Add(huge, []byte{0}, false)

	f.Fuzz(func(t *testing.T, data, cuts []byte, refuse bool) {
		wantHdr, wantPayload, wantErr := openWhole(data)
		// Frames of a MiB or more are never buffered here (admit refuses
		// them), so a payload-sized allocation before admit would show.
		big := impliedLen(data) >= 1<<20
		var before runtime.MemStats
		if big {
			runtime.ReadMemStats(&before)
		}

		rd := &chunkReader{data: data, cuts: cuts}
		admitted := false
		var at int
		frame, format, err := ReadFrame(rd, false, func(hdr []byte) (func(io.Reader) error, error) {
			admitted = true
			if rd.served != len(hdr) || !bytes.Equal(hdr, data[:len(hdr)]) {
				t.Fatalf("admit saw %d header bytes after %d were read", len(hdr), rd.served)
			}
			at = rd.served
			n := impliedLen(hdr)
			if n < 0 {
				t.Fatal("admit called on a header Size refuses")
			}
			if big {
				var now runtime.MemStats
				runtime.ReadMemStats(&now)
				if grown := now.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
					t.Fatalf("%d bytes allocated before admit saw a %d-byte frame's header", grown, n)
				}
			}
			if refuse || n > len(data) {
				return nil, errRefused // the budget: never buffer more than the input could fill
			}
			return nil, nil
		}, frameFormats...)
		if admitted && errors.Is(err, errRefused) {
			if rd.served != at {
				t.Fatalf("refused frame: %d bytes read after admit", rd.served-at)
			}
			if wantErr == nil && !refuse {
				t.Fatalf("budget refused a frame Open accepts")
			}
			return
		}
		var hdr, payload []byte
		if err == nil {
			if format == nil || !bytes.Equal(frame, data) {
				t.Fatalf("ReadFrame returned %d bytes of %d (format %v)", len(frame), len(data), format)
			}
			hdr, payload, err = format.Open(frame)
		}
		if !sameSentinel(err, wantErr) {
			t.Fatalf("ReadFrame+Open: %v; Open: %v", err, wantErr)
		}
		if err == nil && (!bytes.Equal(hdr, wantHdr) || !bytes.Equal(payload, wantPayload)) {
			t.Fatal("ReadFrame+Open and Open disagree on header or payload")
		}
		streamAgreesWithOpen(t, data, cuts, wantHdr, wantPayload, wantErr)
		if frame == nil {
			return
		}

		// A sealed exchange: the MAC trailer rides after the CRC.
		trailer := bytes.Repeat([]byte{0xa5}, MACTrailerLen)
		sealed := append(append([]byte(nil), data...), trailer...)
		got, _, err := ReadFrame(&chunkReader{data: sealed, cuts: cuts}, true, nil, frameFormats...)
		if err != nil || !bytes.Equal(got, sealed) {
			t.Fatalf("with a MAC trailer: %d bytes, %v", len(got), err)
		}
		if _, _, err := ReadFrame(bytes.NewReader(data), true, nil, frameFormats...); !errors.Is(err, ErrEnvelopeCorrupt) {
			t.Fatalf("frame missing its MAC trailer: %v, want ErrEnvelopeCorrupt", err)
		}
	})
}
