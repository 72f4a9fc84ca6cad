package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"evilbloom/internal/core"
)

// decodeRecord is the slice parser replay used before it streamed, kept as
// the oracle FuzzReplaySegment holds readRecords to. It parses one framed
// record from the head of data, returning the op+item bytes and the total
// framed length, or (nil, 0) when the head is not a valid complete record.
func decodeRecord(data []byte) ([]byte, int) {
	if len(data) < 4 {
		return nil, 0
	}
	n := binary.LittleEndian.Uint32(data)
	if n < 1 || n > walMaxRecord {
		return nil, 0
	}
	total := 4 + int(n) + 4
	if len(data) < total {
		return nil, 0
	}
	body := data[4 : 4+n]
	if binary.LittleEndian.Uint32(data[4+n:]) != crc32.ChecksumIEEE(body) {
		return nil, 0
	}
	return body, total
}

// walOp is one replayed record.
type walOp struct {
	op   byte
	item string
}

// walkRecords is the oracle's walk of a whole segment: the records before
// the first bad one (an unknown op is bad too), the valid prefix length,
// and whether a bad record ends the segment.
func walkRecords(data []byte) (ops []walOp, valid int, torn bool) {
	for valid < len(data) {
		rec, n := decodeRecord(data[valid:])
		if n == 0 || (rec[0] != walRecordAdd && rec[0] != walRecordRemove) {
			return ops, valid, true
		}
		ops = append(ops, walOp{rec[0], string(rec[1:])})
		valid += n
	}
	return ops, valid, false
}

// walRecord frames one record the way the journal writes it.
func walRecord(op byte, item []byte) []byte {
	return walFrame(uint32(1+len(item)), append([]byte{op}, item...))
}

// walFrame frames body under an arbitrary length field, with body's CRC.
func walFrame(length uint32, body []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, length)
	rec = append(rec, body...)
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
}

// collect runs readRecords over r and returns what it applied.
func collect(r io.Reader) (ops []walOp, valid int64, torn bool, err error) {
	valid, torn, err = readRecords(r, func(op byte, item []byte) error {
		ops = append(ops, walOp{op, string(item)})
		return nil
	})
	return ops, valid, torn, err
}

var errBoom = errors.New("boom")

// readerShapes are the ways a segment may arrive: whole, a byte at a time,
// and half of each request.
var readerShapes = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// TestReadRecords pins the record reader's three outcomes — complete, torn
// at the last valid boundary, failed — for streams of every shape. A read
// error other than end-of-stream is never a torn tail: reporting one would
// truncate acknowledged records.
func TestReadRecords(t *testing.T) {
	var prefix []byte
	var prefixOps []walOp
	for i := 0; i < 5; i++ {
		op := walRecordAdd
		if i == 3 {
			op = walRecordRemove
		}
		item := []byte(fmt.Sprintf("item-%d", i))
		prefix = append(prefix, walRecord(op, item)...)
		prefixOps = append(prefixOps, walOp{op, string(item)})
	}
	then := func(tail ...[]byte) []byte {
		return bytes.Join(append([][]byte{prefix}, tail...), nil)
	}
	next := walRecord(walRecordAdd, []byte("next-item"))
	badCRC := bytes.Clone(next)
	badCRC[len(badCRC)-1] ^= 1

	// In-bound filler records end 2 bytes before the buffer's end, so the
	// straddler's header and body straddle the first fill.
	var straddle []byte
	var straddleOps []walOp
	for len(straddle) < walReadBuffer-2 {
		filler := bytes.Repeat([]byte{'f'}, min(MaxItemLen, walReadBuffer-2-len(straddle)-9))
		straddle = append(straddle, walRecord(walRecordAdd, filler)...)
		straddleOps = append(straddleOps, walOp{walRecordAdd, string(filler)})
	}
	if len(straddle) != walReadBuffer-2 {
		t.Fatalf("the straddler's header starts at %d, want %d", len(straddle), walReadBuffer-2)
	}
	straddle = append(straddle, walRecord(walRecordAdd, []byte("straddler"))...)
	straddleOps = append(straddleOps, walOp{walRecordAdd, "straddler"})

	maxItem := bytes.Repeat([]byte{'m'}, walMaxRecord-1)
	maxRec := walRecord(walRecordAdd, maxItem)
	overRec := walRecord(walRecordAdd, append(bytes.Clone(maxItem), 'm'))
	maxOps := append(append([]walOp(nil), prefixOps...), walOp{walRecordAdd, string(maxItem)})

	bytesOf := func(b []byte) func() io.Reader {
		return func() io.Reader { return bytes.NewReader(b) }
	}
	failing := func(parts ...[]byte) func() io.Reader {
		return func() io.Reader {
			var rs []io.Reader
			for _, p := range parts {
				rs = append(rs, bytes.NewReader(p))
			}
			return io.MultiReader(append(rs, iotest.ErrReader(errBoom))...)
		}
	}
	cases := []struct {
		name      string
		stream    func() io.Reader
		wantOps   []walOp
		wantValid int
		wantTorn  bool
		wantErr   error
	}{
		{"empty", bytesOf(nil), nil, 0, false, nil},
		{"complete", bytesOf(prefix), prefixOps, len(prefix), false, nil},
		{"I/O error after the prefix", failing(prefix), prefixOps, len(prefix), false, errBoom},
		{"I/O error mid-header", failing(prefix, next[:2]), prefixOps, len(prefix), false, errBoom},
		{"I/O error mid-body", failing(prefix, next[:7]), prefixOps, len(prefix), false, errBoom},
		{"EOF mid-header", bytesOf(then(next[:3])), prefixOps, len(prefix), true, nil},
		{"EOF mid-body", bytesOf(then(next[:7])), prefixOps, len(prefix), true, nil},
		{"EOF mid-CRC", bytesOf(then(next[:len(next)-1])), prefixOps, len(prefix), true, nil},
		{"CRC mismatch", bytesOf(then(badCRC, next)), prefixOps, len(prefix), true, nil},
		{"length 0", bytesOf(then(walFrame(0, nil), next)), prefixOps, len(prefix), true, nil},
		{"unknown op", bytesOf(then(walRecord(3, []byte("x")), next)), prefixOps, len(prefix), true, nil},
		{"straddles the buffer", bytesOf(straddle), straddleOps, len(straddle), false, nil},
		{"exactly walMaxRecord", bytesOf(then(maxRec)), maxOps, len(prefix) + len(maxRec), false, nil},
		{"walMaxRecord + 1", bytesOf(then(overRec)), prefixOps, len(prefix), true, nil},
		{"walMaxRecord, EOF mid-body", bytesOf(then(maxRec[:len(maxRec)/2])), prefixOps, len(prefix), true, nil},
		{"walMaxRecord, I/O error mid-body", failing(prefix, maxRec[:len(maxRec)/2]), prefixOps, len(prefix), false, errBoom},
	}
	for _, tc := range cases {
		for _, shape := range readerShapes {
			t.Run(tc.name+"/"+shape.name, func(t *testing.T) {
				ops, valid, torn, err := collect(shape.wrap(tc.stream()))
				if !errors.Is(err, tc.wantErr) || (err == nil) != (tc.wantErr == nil) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if torn != tc.wantTorn || valid != int64(tc.wantValid) {
					t.Fatalf("valid %d torn %v, want %d %v", valid, torn, tc.wantValid, tc.wantTorn)
				}
				if !reflect.DeepEqual(ops, tc.wantOps) {
					t.Fatalf("applied %d records, want %d", len(ops), len(tc.wantOps))
				}
			})
		}
	}
}

// A corrupt length the stream does not back costs only the bytes that
// arrived, not the walMaxRecord it claims.
func TestReadRecordsCorruptLengthAllocatesWhatArrived(t *testing.T) {
	stream := append(walFrame(walMaxRecord, []byte{walRecordAdd}), make([]byte, 100)...)
	var torn bool
	n := allocated(func() {
		_, torn, _ = readRecords(bytes.NewReader(stream), func(byte, []byte) error { return nil })
	})
	if !torn {
		t.Fatal("short record not reported torn")
	}
	if n > 4*walReadBuffer {
		t.Fatalf("allocated %d bytes for %d bytes of stream", n, len(stream))
	}
}

// An error from apply stops the walk where it happened and is returned;
// it is not a torn tail.
func TestReadRecordsReturnsApplyError(t *testing.T) {
	stream := append(walRecord(walRecordAdd, []byte("a")), walRecord(walRecordRemove, []byte("b"))...)
	calls := 0
	valid, torn, err := readRecords(bytes.NewReader(stream), func(op byte, _ []byte) error {
		calls++
		if op == walRecordRemove {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) || torn || valid != int64(len(walRecord(walRecordAdd, []byte("a")))) || calls != 2 {
		t.Fatalf("valid %d torn %v err %v after %d calls", valid, torn, err, calls)
	}
}

// replayCfg is the fixed configuration behind FuzzReplaySegment's segments:
// a counting filter, so logged removals replay.
func replayCfg() Config { return persistCfg(VariantCounting, ModeNaive, 4, core.Saturate) }

// writeLogOnlyFilter creates <dataDir>/<name> holding cfg's meta.json
// and the given segments, wal-0 upward, and no snapshot.
func writeLogOnlyFilter(tb testing.TB, dataDir, name string, cfg Config, segments ...[]byte) string {
	tb.Helper()
	dir := filepath.Join(dataDir, name)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		tb.Fatal(err)
	}
	c, err := cfg.withDefaults()
	if err != nil {
		tb.Fatal(err)
	}
	meta, err := json.Marshal(metaFromConfig(c))
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFileName), meta, 0o600); err != nil {
		tb.Fatal(err)
	}
	for gen, seg := range segments {
		if err := os.WriteFile(filepath.Join(dir, walName(uint64(gen))), seg, 0o600); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// journalOf returns the segment a real store journals for 40 adds and one
// accepted removal — the torn test's log.
func journalOf(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	reg := NewRegistry()
	if _, err := reg.OpenDataDir(dir, SyncNever); err != nil {
		tb.Fatal(err)
	}
	f, err := reg.Create("j", replayCfg())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		f.Store().Add([]byte(fmt.Sprintf("torn-item-%d", i)))
	}
	if ok, err := f.Store().Remove([]byte("torn-item-7")); err != nil || !ok {
		tb.Fatalf("remove refused (err=%v)", err)
	}
	if err := reg.Close(); err != nil {
		tb.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "j", walName(0)))
	if err != nil {
		tb.Fatal(err)
	}
	return wal
}

// dirContents maps every file under dir to its bytes.
func dirContents(tb testing.TB, dir string) map[string]string {
	tb.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return files
}

// FuzzReplaySegment holds streaming replay to the slice oracle on arbitrary
// segment bytes behind a fixed meta.json. readRecords must apply exactly
// the records the oracle decodes, in order, and report its valid prefix;
// a boot from the segment must recover the state those records build and
// truncate the file to exactly that prefix, leave a complete segment
// untouched, and refuse (truncating nothing) when a logged removal is
// refused. Nothing may panic.
func FuzzReplaySegment(f *testing.F) {
	wal := journalOf(f)
	f.Add(wal)
	_, lastStart, _ := walkRecords(wal[:len(wal)-1])
	for cut := lastStart; cut <= len(wal); cut++ {
		f.Add(wal[:cut])
	}
	flipped := bytes.Clone(wal)
	flipped[len(wal)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append(bytes.Clone(wal), walRecord(walRecordRemove, []byte("never-added"))...))
	cfg := replayCfg()

	f.Fuzz(func(t *testing.T, data []byte) {
		wantOps, wantValid, wantTorn := walkRecords(data)
		for _, shape := range readerShapes {
			ops, valid, torn, err := collect(shape.wrap(bytes.NewReader(data)))
			if err != nil || torn != wantTorn || valid != int64(wantValid) || !reflect.DeepEqual(ops, wantOps) {
				t.Fatalf("%s: %d records, valid %d, torn %v, err %v; oracle %d records, valid %d, torn %v",
					shape.name, len(ops), valid, torn, err, len(wantOps), wantValid, wantTorn)
			}
		}

		// The state the oracle's records build, or the removal it refuses.
		ref, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refused := false
		for _, op := range wantOps {
			if op.op == walRecordAdd {
				ref.Add([]byte(op.item))
			} else if ok, err := ref.Remove([]byte(op.item)); err != nil || !ok {
				refused = true
				break
			}
		}

		dir := writeLogOnlyFilter(t, t.TempDir(), "fz", cfg, data)
		p, pcfg, err := openPersister(dir, SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSharded(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		err = p.Replay(s)
		if refused {
			if err == nil {
				p.Close() //nolint:errcheck
				t.Fatal("replay accepted a removal the oracle's state refuses")
			}
		} else {
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recovered state differs from the oracle's records")
			}
		}
		onDisk, err := os.ReadFile(filepath.Join(dir, walName(0)))
		if err != nil {
			t.Fatal(err)
		}
		wantDisk := data[:wantValid]
		if refused {
			wantDisk = data
		}
		if !bytes.Equal(onDisk, wantDisk) {
			t.Fatalf("segment left at %d bytes, want %d of %d", len(onDisk), len(wantDisk), len(data))
		}
	})
}

// A bad record in a segment that later segments follow is not a crashed
// write — Compact syncs a segment before it opens the next — so boot
// refuses it, names the segment and offset, and changes nothing on disk.
// Truncating and journaling on would make the next boot replay the later
// segments after the new operations: a different state from the same
// history.
func TestBadRecordInEarlierSegmentRefusesBoot(t *testing.T) {
	var seg0, seg1 []byte
	for i := 0; i < 40; i++ {
		seg0 = append(seg0, walRecord(walRecordAdd, []byte(fmt.Sprintf("first-%d", i)))...)
		seg1 = append(seg1, walRecord(walRecordAdd, []byte(fmt.Sprintf("second-%d", i)))...)
	}
	seg0[len(seg0)/2] ^= 0x01
	_, valid, torn := walkRecords(seg0)
	if !torn {
		t.Fatal("flipped byte did not break a record")
	}

	data := t.TempDir()
	writeLogOnlyFilter(t, data, "mid", replayCfg(), seg0, seg1)
	before := dirContents(t, data)
	for boot := 0; boot < 2; boot++ {
		reg := NewRegistry()
		_, err := reg.OpenDataDir(data, SyncNever)
		reg.Close() //nolint:errcheck
		if err == nil {
			t.Fatalf("boot %d recovered past a bad record in a non-final segment", boot)
		}
		if want := fmt.Sprintf("%s has a bad record at offset %d", walName(0), valid); !strings.Contains(err.Error(), want) {
			t.Fatalf("boot %d: error %q does not say %q", boot, err, want)
		}
		if after := dirContents(t, data); !reflect.DeepEqual(after, before) {
			t.Fatalf("boot %d changed the data directory", boot)
		}
	}
}

// The allocation pin of streaming replay: booting a log-only filter from
// tens of MiB of log allocates the store's words plus bounded buffers, not
// the log's size.
func TestReplayAllocatesBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and replays 32 MiB of log")
	}
	cfg := persistCfg(VariantBloom, ModeHardened, 0, 0)
	cfg.ShardBits = 1 << 22
	data := t.TempDir()
	dir := writeLogOnlyFilter(t, data, "big", cfg)
	seg, err := os.Create(filepath.Join(dir, walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(seg)
	rng := rand.New(rand.NewSource(42))
	item := make([]byte, 1536)
	var walBytes int
	var last []byte
	for walBytes < 32<<20 {
		last = item[:512+rng.Intn(1024)]
		rng.Read(last) //nolint:errcheck // math/rand never fails
		rec := walRecord(walRecordAdd, last)
		w.Write(rec) //nolint:errcheck // checked by Flush
		walBytes += len(rec)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	bits, err := c.storageBits()
	if err != nil {
		t.Fatal(err)
	}
	words := bits / 8
	reg := NewRegistry()
	defer reg.Close() //nolint:errcheck
	n := allocated(func() {
		if _, err := reg.OpenDataDir(data, SyncNever); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("OpenDataDir allocated %.1f MiB for %.1f MiB of words and %.1f MiB of log",
		float64(n)/(1<<20), float64(words)/(1<<20), float64(walBytes)/(1<<20))
	// Under the race detector sync.Pool drops entries, so the per-add
	// scratch the pools hold is allocated anew; the race job runs this
	// test for the replay, not the bound.
	if limit := words + 1<<20; n > limit && !underRace() {
		t.Errorf("OpenDataDir allocated %d bytes, limit %d (the words + 1 MiB)", n, limit)
	}
	f, err := reg.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Store().Test(last) {
		t.Error("the last logged add is absent after replay")
	}
}
