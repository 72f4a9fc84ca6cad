package cachedigest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Frame: the one binary framing of snapshot envelopes (package service's
// EVBSNAP1), digest envelopes (EVBDIGE1) and digest deltas (EVBDIGD1): an
// 8-byte magic, a 2-byte version, the format's fixed header fields, a
// payload whose size P the header implies, an IEEE CRC-32 of everything
// before it and, on sealed mesh exchanges only, the MAC trailer (Seal). A
// frame is exactly that long. Because P follows from the header, a reader
// checks it, and the caller's budget, before it allocates the payload.
const frameCRCLen = 4

// Format is one frame kind's header schema over the shared rules.
type Format struct {
	Magic     string // 8 bytes
	HeaderLen int    // magic and version included
	// Size validates a header whose length and magic are checked, and
	// returns the payload size it implies. Its errors pass through as they are.
	Size func(hdr []byte) (uint64, error)
	// Corrupt is the sentinel the codec's own refusals wrap.
	Corrupt error
}

// Version returns the version field of a frame of any format (0 when frame
// is too short to hold one).
func Version(frame []byte) uint16 {
	if len(frame) < 10 {
		return 0
	}
	return binary.LittleEndian.Uint16(frame[8:])
}

// Start begins encoding a frame: HeaderLen bytes holding the magic and the
// version, with room for the payload and the CRC; the encoder fills in its
// fields, appends the payload and calls Finish.
func (f *Format) Start(version uint16, payloadLen int) []byte {
	out := make([]byte, f.HeaderLen, f.HeaderLen+payloadLen+frameCRCLen)
	copy(out, f.Magic)
	binary.LittleEndian.PutUint16(out[8:], version)
	return out
}

// Finish appends the CRC-32 of buf, header and payload, completing the frame.
func (f *Format) Finish(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// frameLen returns the frame length hdr implies, CRC included.
func (f *Format) frameLen(hdr []byte) (int, error) {
	n, err := f.Size(hdr)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt-1<<10 { // Size's bounds and the caller's budget are the real ones
		return 0, fmt.Errorf("%w: header implies a %d-byte payload", f.Corrupt, n)
	}
	return f.HeaderLen + int(n) + frameCRCLen, nil
}

// Open validates a whole frame — header, exact length, CRC — and returns
// its header and payload, both aliasing data.
func (f *Format) Open(data []byte) (hdr, payload []byte, err error) {
	if len(data) < f.HeaderLen {
		return nil, nil, fmt.Errorf("%w: %d header bytes, need %d", f.Corrupt, len(data), f.HeaderLen)
	}
	if hdr = data[:f.HeaderLen]; string(hdr[:8]) != f.Magic {
		return nil, nil, fmt.Errorf("%w: bad magic", f.Corrupt)
	}
	n, err := f.frameLen(hdr)
	if err != nil {
		return nil, nil, err
	}
	if len(data) != n {
		return nil, nil, fmt.Errorf("%w: frame is %d bytes, header implies %d", f.Corrupt, len(data), n)
	}
	body := data[:n-frameCRCLen]
	if got, sum := binary.LittleEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); got != sum {
		return nil, nil, fmt.Errorf("%w: checksum 0x%08x, computed 0x%08x", f.Corrupt, got, sum)
	}
	return hdr, body[f.HeaderLen:], nil
}

// ReadFrame is the one reader of a frame from a stream. It reads the
// shortest of formats' headers, picks the format by magic, completes and
// sizes the header, and passes it to admit (when not nil): the caller's
// budget, whose refusal is returned as it is. Only then does it read the
// payload, the CRC and, when sealed, the MAC trailer; any byte after them
// is corrupt.
//
// By default it returns the frame, unchecked (a sealed frame is unsealed
// before its CRC is trusted): the caller Opens it, and ReadFrame then Open
// accept exactly what Open accepts. When admit also returns a consumer, an
// unsealed payload is never buffered: consume reads it from a reader bounded
// to exactly its size that checksums it as it passes, and must read all of
// it; ReadFrame checks the CRC itself, accepts exactly what Open would, and
// returns only the header. The CRC is known only after consume has used
// every byte, so on any error the caller discards what consume built.
func ReadFrame(rd io.Reader, sealed bool, admit func(hdr []byte) (consume func(io.Reader) error, err error), formats ...*Format) ([]byte, *Format, error) {
	lo, hi := formats[0].HeaderLen, formats[0].HeaderLen
	for _, f := range formats[1:] {
		lo, hi = min(lo, f.HeaderLen), max(hi, f.HeaderLen)
	}
	hdr := make([]byte, hi)
	if _, err := io.ReadFull(rd, hdr[:lo]); err != nil {
		return nil, nil, fmt.Errorf("%w: reading header: %v", formats[0].Corrupt, err)
	}
	var f *Format
	for _, c := range formats {
		if string(hdr[:8]) == c.Magic {
			f = c
		}
	}
	if f == nil {
		return nil, nil, fmt.Errorf("%w: bad magic", formats[0].Corrupt)
	}
	hdr = hdr[:f.HeaderLen]
	if _, err := io.ReadFull(rd, hdr[lo:]); err != nil {
		return nil, f, fmt.Errorf("%w: reading header: %v", f.Corrupt, err)
	}
	n, err := f.frameLen(hdr)
	var consume func(io.Reader) error
	if err == nil && admit != nil {
		consume, err = admit(hdr)
	}
	if err != nil {
		return nil, f, err
	}
	if consume == nil {
		if sealed {
			n += MACTrailerLen
		}
		frame := make([]byte, n)
		copy(frame, hdr)
		if _, err := io.ReadFull(rd, frame[len(hdr):]); err != nil {
			return nil, f, fmt.Errorf("%w: reading payload: %v", f.Corrupt, err)
		}
		hdr = frame
	} else {
		crc := crc32.NewIEEE()
		crc.Write(hdr) //nolint:errcheck // a hash never fails
		body := &io.LimitedReader{R: io.TeeReader(rd, crc), N: int64(n - len(hdr) - frameCRCLen)}
		if err := consume(body); err != nil {
			return nil, f, err
		}
		if body.N != 0 {
			return nil, f, fmt.Errorf("%w: payload ends %d bytes short", f.Corrupt, body.N)
		}
		var sum [frameCRCLen]byte
		if _, err := io.ReadFull(rd, sum[:]); err != nil {
			return nil, f, fmt.Errorf("%w: reading checksum: %v", f.Corrupt, err)
		}
		if got, want := binary.LittleEndian.Uint32(sum[:]), crc.Sum32(); got != want {
			return nil, f, fmt.Errorf("%w: checksum 0x%08x, computed 0x%08x", f.Corrupt, got, want)
		}
	}
	if k, _ := io.ReadFull(rd, make([]byte, 1)); k != 0 {
		return nil, f, fmt.Errorf("%w: trailing bytes after frame", f.Corrupt)
	}
	return hdr, f, nil
}
