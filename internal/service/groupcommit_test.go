package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"evilbloom/internal/core"
	"evilbloom/internal/urlgen"
)

// flush writes and fsyncs everything framed so far.
func (p *Persister) flush() {
	p.claim()
	p.drain(true, true)
	p.release()
}

// failOnce makes the journal's next segment op named op ("write" or
// "sync") fail with err.
func (p *Persister) failOnce(op string, err error) {
	p.claim()
	p.failNext = func(o string) error {
		if o != op {
			return nil
		}
		p.failNext = nil
		return err
	}
	p.release()
}

// segmentStores are the stores segmentOps journals, each with the segments
// it must write: length and SHA-256 of wal-0 and wal-1. The counting row's
// goldens were captured from the write-through journal before group commit;
// its wal-0 is that journal's segment with the refused 100 KiB add's record
// (102 409 bytes at offset 173 325) cut out. The bloom rows' goldens were
// captured from the per-record journal and index-slice insert walk that
// preceded the progression set kernel and per-window framing.
var segmentStores = []struct {
	name   string
	cfg    Config
	ops    func(t *testing.T, s *Sharded, p *Persister, items [][]byte)
	golden map[string]string
}{
	{"counting", persistCfg(VariantCounting, ModeNaive, 4, core.Saturate), countingSegmentOps, map[string]string{
		walName(0): "284026 1c7477a5e83d73e07332f4c0016b48cc4a61578528c88712dc656f74bdbe403c",
		walName(1): "64324 6d57d20a56c824c0db35bb8d4f71f0be9cc79f2cc71eaf4c458074c288a0906c",
	}},
	{"bloom-naive-v2", persistCfg(VariantBloom, ModeNaive, 0, 0), bloomSegmentOps, map[string]string{
		walName(0): "172568 d6fa1206b6425c8d45fc4211e746755ab29e9de42e4cf7d32becf49052e1afd1",
		walName(1): "90072 cf35e21391e7955dc3eaa295d72cefcd52f2a378c0991b75ac335f0ea11658cb",
	}},
	{"bloom-hardened-v3", persistCfg(VariantBloom, ModeHardened, 0, 0), bloomSegmentOps, map[string]string{
		walName(0): "173973 6662f9a029befd60d4f70b83d4e29468f20e76fa8e1599fa6d0a156d1419e72c",
		walName(1): "90454 7d5a46604121b51443da4e879c62f0a4d2b55e248735a8376c568681efe898d6",
	}},
}

// segmentOps drives a store built from cfg, journaling into dir, through
// ops over 4000 fixed items, and closes the journal.
func segmentOps(t *testing.T, dir string, policy SyncPolicy, cfg Config,
	ops func(t *testing.T, s *Sharded, p *Persister, items [][]byte)) {
	t.Helper()
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := createPersister(dir, s.config(), policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(p)
	gen := urlgen.New(5)
	items := make([][]byte, 4000)
	for i := range items {
		items[i] = gen.Next()
	}
	ops(t, s, p, items)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// countingSegmentOps is a fixed operation sequence for a counting store:
// batches spanning several chunks, a refused add of an item over
// MaxItemLen, accepted and refused removals, a compaction, single adds and
// removes.
func countingSegmentOps(t *testing.T, s *Sharded, p *Persister, items [][]byte) {
	s.AddBatch(items[:3000])
	if !panics(func() { s.Add(bytes.Repeat([]byte("evil"), 25<<10)) }) {
		t.Fatal("a 100 KiB add was not refused")
	}
	if _, err := s.RemoveBatch(append(items[:500:500], []byte("absent-1"), []byte("absent-2"))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Add(bytes.Repeat([]byte{byte('a' + i)}, 4096))
	}
	if err := p.Compact(s); err != nil {
		t.Fatal(err)
	}
	s.AddBatch(items[3000:])
	for _, it := range items[3000:3100] {
		s.Remove(it) //nolint:errcheck // refusals are part of the sequence
	}
}

// bloomSegmentOps is a fixed operation sequence for a bloom store, whose
// journal holds only the adds that set a bit: fresh batches spanning
// several chunks, the same batch repeated (nothing journaled), a
// TestAndAddBatch mixing fresh and repeat items with in-batch duplicates,
// single adds of repeats then fresh items, a compaction, and a last batch
// into a filter so full (8192 bits, k = 4) that distinct keys find their
// bits already set by others.
func bloomSegmentOps(t *testing.T, s *Sharded, p *Persister, items [][]byte) {
	s.AddBatch(items[:1500])
	s.AddBatch(items[:1500])
	s.TestAndAddBatch(nil, append(items[1400:1600:1600], items[1500:1550]...))
	for _, it := range items[1590:1700] {
		s.Add(it)
	}
	for i := 0; i < 20; i++ {
		s.Add(bytes.Repeat([]byte{byte('a' + i)}, 4096))
	}
	if err := p.Compact(s); err != nil {
		t.Fatal(err)
	}
	s.AddBatch(items[1700:])
	for _, it := range items[3900:] {
		s.Add(it)
	}
}

// panics reports whether f panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// Group commit changes when records reach the segment, never which bytes:
// under every policy, segmentOps writes exactly each store's golden
// segments.
func TestSegmentBytesMatchGolden(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNever, SyncInterval, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, store := range segmentStores {
				t.Run(store.name, func(t *testing.T) {
					dir := t.TempDir()
					segmentOps(t, dir, policy, store.cfg, store.ops)
					for name, want := range store.golden {
						b, err := os.ReadFile(filepath.Join(dir, name))
						if err != nil {
							t.Fatal(err)
						}
						sum := sha256.Sum256(b)
						if got := fmt.Sprintf("%d %s", len(b), hex.EncodeToString(sum[:])); got != want {
							t.Errorf("%s: %s, want %s", name, got, want)
						}
					}
				})
			}
		})
	}
}

// An item over MaxItemLen is refused before it is placed, locked or
// journaled, on every mutating entry point. Replay reads a longer record
// as a torn tail, so before the refusal an acknowledged add of one vanished
// on the next boot together with every record after it: here "after" would
// replay absent. An item of exactly MaxItemLen is accepted and replays.
func TestOverlongItemRefusedBeforeJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSharded(persistCfg(VariantCounting, ModeNaive, 4, core.Saturate))
	if err != nil {
		t.Fatal(err)
	}
	p, err := createPersister(dir, s.config(), SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	s.SetJournal(p)
	over := bytes.Repeat([]byte("o"), MaxItemLen+1)
	longest := bytes.Repeat([]byte("m"), MaxItemLen)

	s.Add([]byte("before"))
	if !panics(func() { s.Add(over) }) {
		t.Fatal("Add of an item over MaxItemLen was not refused")
	}
	s.Add(longest)
	s.Add([]byte("after"))
	if err := p.commit(); err != nil {
		t.Fatal(err)
	}

	// Every mutating entry point refuses a batch holding one over-long item
	// whole: no count, generation, weight or journal record moves.
	batch := [][]byte{[]byte("before"), over, []byte("fresh")}
	entries := []struct {
		name string
		call func()
	}{
		{"Add", func() { s.Add(over) }},
		{"Remove", func() { s.Remove(over) }}, //nolint:errcheck // must panic
		{"AddBatch", func() { s.AddBatch(batch) }},
		{"TestAndAddBatch", func() { s.TestAndAddBatch(nil, batch) }},
		{"RemoveBatch", func() { s.RemoveBatch(batch) }}, //nolint:errcheck // must panic
	}
	journal := func() (uint64, int64) {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.seq, p.queued
	}
	for _, e := range entries {
		count, gen, stats := s.Count(), s.Generation(), s.Stats()
		seq, queued := journal()
		if !panics(e.call) {
			t.Fatalf("%s: an item over MaxItemLen was not refused", e.name)
		}
		seq2, queued2 := journal()
		if s.Count() != count || s.Generation() != gen || !reflect.DeepEqual(s.Stats(), stats) || seq2 != seq || queued2 != queued {
			t.Fatalf("%s: a refused call changed the store or the journal", e.name)
		}
	}
	// No refusal left a shard locked: an add on every shard completes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for si, i := 0, 0; si < s.Shards(); i++ {
			item := []byte(fmt.Sprintf("probe-%d", i))
			if shard, _ := s.place.Place(nil, item); shard == si {
				s.Add(item)
				si++
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an add blocked on a shard lock a refusal left held")
	}
	if err := p.commit(); err != nil {
		t.Fatal(err)
	}

	// Boot from the directory as a crash would leave it, without Close.
	q, cfg, err := openPersister(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Replay(r); err != nil {
		t.Fatal(err)
	}
	defer q.Close() //nolint:errcheck
	for _, tc := range []struct {
		item []byte
		want bool
	}{{[]byte("before"), true}, {over, false}, {longest, true}, {[]byte("after"), true}} {
		if got := r.Test(tc.item); got != tc.want {
			t.Errorf("after replay, Test(%.12q…) = %v, want %v", tc.item, got, tc.want)
		}
	}
	if r.Count() != s.Count() {
		t.Errorf("replay recovered count %d, the live store had %d", r.Count(), s.Count())
	}
}

// blockSyncer parks the syncer's next segment write until the returned
// release is called, so a test can fill the pool behind it.
func blockSyncer(p *Persister) (release func()) {
	gate := make(chan struct{})
	p.claim()
	p.failNext = func(op string) error {
		<-gate
		return nil
	}
	p.release()
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// A burst of appends against a stalled syncer never holds more than
// maxChunks pooled chunks: the appender waits for the syncer instead of
// growing a buffer, and once the syncer moves every record reaches the
// segment in order.
func TestJournalChunksBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSharded(persistCfg(VariantBloom, ModeNaive, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	p, err := createPersister(dir, s.config(), SyncInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	release := blockSyncer(p)
	defer release()

	const records = 100_000
	item := bytes.Repeat([]byte("x"), 40) // 49-byte records: ~75 chunks' worth
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < records; i++ {
			p.append(walRecordAdd, item)
		}
	}()
	// The appender must stall with every pooled chunk in use.
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		full := p.chunks == maxChunks && len(p.free) == 0 && p.cur == nil
		p.mu.Unlock()
		if full {
			break
		}
		select {
		case <-done:
			t.Fatal("the burst finished against a stalled syncer: appends did not wait for a chunk")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the pool never filled")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("the appender went on with every chunk in use")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-done
	p.mu.Lock()
	chunks, failed := p.chunks, p.err
	p.mu.Unlock()
	if chunks > maxChunks || failed != nil {
		t.Fatalf("after the burst: %d chunks (bound %d), err %v", chunks, maxChunks, failed)
	}
	p.flush()
	f, err := os.Open(filepath.Join(dir, walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // read-only
	n := 0
	valid, torn, err := readRecords(f, func(op byte, it []byte) error {
		if op != walRecordAdd || !bytes.Equal(it, item) {
			return fmt.Errorf("record %d: op %d item %q", n, op, it)
		}
		n++
		return nil
	})
	if err != nil || torn || n != records || valid != records*int64(4+1+len(item)+4) {
		t.Fatalf("segment: %d records, %d valid bytes, torn %v, err %v; want %d records", n, valid, torn, err, records)
	}
}

// Once the pool is warm, an append allocates nothing — a window of adds
// framed by one call, or a single removal: records go into recycled chunks,
// whatever the policy.
func TestAppendSteadyStateAllocs(t *testing.T) {
	if underRace() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, policy := range []SyncPolicy{SyncNever, SyncInterval, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			s, err := NewSharded(persistCfg(VariantBloom, ModeNaive, 0, 0))
			if err != nil {
				t.Fatal(err)
			}
			p, err := createPersister(t.TempDir(), s.config(), policy, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close() //nolint:errcheck
			item := []byte("steady-state-journal-record")
			window := make([][]byte, deriveWindow)
			for i := range window {
				window[i] = item
			}
			burst := func() {
				for i := 0; i < 4096; i += 2 * deriveWindow {
					p.JournalAdds(window)
					for _, it := range window {
						p.JournalRemove(it)
					}
				}
			}
			// Warm the pool to its bound behind a stalled syncer, so no
			// measured append can be the one that allocates a chunk.
			release := blockSyncer(p)
			warm := make(chan struct{})
			go func() {
				defer close(warm)
				for i := 0; i < 64; i++ {
					burst()
				}
			}()
			for {
				p.mu.Lock()
				n := p.chunks
				p.mu.Unlock()
				if n == maxChunks {
					break
				}
				time.Sleep(time.Millisecond)
			}
			release()
			<-warm
			if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
				t.Fatalf("%v allocations per 4096 appends, want 0", allocs)
			}
		})
	}
}

// Under SyncAlways, concurrent turns share fsyncs: every Commit returns
// only once its own records are durable, and far fewer fsyncs run than
// turns commit.
func TestCommitSharesFsync(t *testing.T) {
	s, err := NewSharded(persistCfg(VariantBloom, ModeNaive, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	p, err := createPersister(t.TempDir(), s.config(), SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	var syncs int
	p.claim()
	p.failNext = func(op string) error {
		if op == "sync" {
			syncs++
		}
		return nil
	}
	p.release()

	const writers, turns = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < turns; i++ {
				seq := p.append(walRecordAdd, []byte(fmt.Sprintf("w%d-turn%d", w, i)))
				if err := p.commit(); err != nil {
					errs <- err
					return
				}
				p.mu.Lock()
				durable := p.durable
				p.mu.Unlock()
				if durable < seq {
					errs <- fmt.Errorf("Commit returned with record %d framed but only %d durable", seq, durable)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p.claim()
	n := syncs
	p.release()
	if n == 0 || n >= writers*turns {
		t.Fatalf("%d fsyncs for %d commits; want at least one and fewer than one per commit", n, writers*turns)
	}
	t.Logf("%d commits shared %d fsyncs", writers*turns, n)
}

// A failed write or fsync fails the turn waiting on it, sticks in Err, and
// fails every later commit: nothing is acknowledged after the disk refused.
func TestCommitAnswersJournalFailure(t *testing.T) {
	for _, op := range []string{"write", "sync"} {
		t.Run(op, func(t *testing.T) {
			s, err := NewSharded(persistCfg(VariantBloom, ModeNaive, 0, 0))
			if err != nil {
				t.Fatal(err)
			}
			p, err := createPersister(t.TempDir(), s.config(), SyncAlways, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close() //nolint:errcheck
			s.SetJournal(p)
			s.Add([]byte("before"))
			if err := p.commit(); err != nil {
				t.Fatal(err)
			}
			injected := errors.New("injected " + op + " failure")
			p.failOnce(op, injected)
			s.Add([]byte("lost"))
			if err := p.commit(); !errors.Is(err, injected) {
				t.Fatalf("Commit after a failed %s: %v, want the injected error", op, err)
			}
			if err := p.Err(); !errors.Is(err, injected) {
				t.Fatalf("Err: %v, want the injected error", err)
			}
			s.Add([]byte("later"))
			if err := p.commit(); !errors.Is(err, injected) {
				t.Fatalf("a later turn's Commit: %v, want the injected error", err)
			}
			if err := p.commit(); !errors.Is(err, injected) {
				t.Fatalf("a later turn that framed nothing: %v, want the injected error", err)
			}
		})
	}
}

// Under SyncInterval and SyncNever a turn does not wait for the disk:
// Commit returns with the records still in memory.
func TestCommitWaitsOnlyUnderAlways(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			s, err := NewSharded(persistCfg(VariantBloom, ModeNaive, 0, 0))
			if err != nil {
				t.Fatal(err)
			}
			p, err := createPersister(t.TempDir(), s.config(), policy, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close() //nolint:errcheck
			release := blockSyncer(p)
			defer release()
			p.append(walRecordAdd, []byte("buffered"))
			if err := p.commit(); err != nil {
				t.Fatal(err)
			}
			p.mu.Lock()
			durable, queued := p.durable, p.queued
			p.mu.Unlock()
			if durable != 0 || queued == 0 {
				t.Fatalf("durable %d, queued %d bytes: Commit waited for the disk", durable, queued)
			}
		})
	}
}

// The shutdown weighing counts records still queued in memory, not only
// the bytes already written.
func TestLogOutweighsCountsQueuedRecords(t *testing.T) {
	s, err := NewSharded(persistCfg(VariantBloom, ModeNaive, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	p, err := createPersister(t.TempDir(), s.config(), SyncInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	release := blockSyncer(p)
	defer release()
	item := bytes.Repeat([]byte("q"), 100)
	for !p.logOutweighs(s) {
		p.append(walRecordAdd, item)
	}
	p.mu.Lock()
	walLen, queued := p.walLen, p.queued
	p.mu.Unlock()
	if walLen != 0 || queued < s.snapshotLen() {
		t.Fatalf("outweighs with %d written and %d queued bytes against a %d-byte snapshot", walLen, queued, s.snapshotLen())
	}
}
