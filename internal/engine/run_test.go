package engine

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"evilbloom/internal/service"
)

// runFixture is an engine over one fresh filter named "f".
func runFixture(t testing.TB, rate RateLimitConfig, cfg service.Config) (*Engine, FilterRef) {
	t.Helper()
	reg := service.NewRegistry()
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // memory-only
	e := New(reg)
	if rate.MutationsPerSec > 0 {
		if err := e.ConfigureRateLimit(rate); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Create("f", cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := e.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	return e, ref
}

// stage fills run with one chunk per command, each a list of items.
func stage(run *Run, kind RunKind, commands ...[]string) {
	run.Reset(kind)
	for _, items := range commands {
		for _, it := range items {
			run.Items = append(run.Items, []byte(it))
		}
		run.AddChunk(len(items))
	}
}

var tester = Principal{ID: "tester"}

// allowed returns how many mutations the filter's accounting charged to
// tester, and how many it refused.
func allowed(e *Engine, ref FilterRef) (ok, throttled uint64) {
	for _, c := range e.Clients(ref).Clients {
		if c.Client == tester.ID {
			return c.Allowed, c.Throttled
		}
	}
	return 0, 0
}

// An add run answers what its commands answer one at a time: an item is new
// only the first time, whether the repeat is in the same command or a later
// one of the same run.
func TestExecuteRunAddAnswersPerItem(t *testing.T) {
	e, ref := runFixture(t, RateLimitConfig{}, service.Config{Shards: 8})
	var run Run
	stage(&run, RunAdd, []string{"x"}, []string{"x", "y"}, []string{"y"})
	e.ExecuteRun(tester, ref, &run)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if want := []bool{true, false, true, false}; !slices.Equal(run.Bools, want) {
		t.Fatalf("chunks [x] [x y] [y] answered %v, want %v", run.Bools, want)
	}
	if n := ref.f.Store().Count(); n != 2 {
		t.Errorf("Count = %d, want 2: only the adds that changed the filter are journaled and counted", n)
	}

	// A test run reads what the add run left.
	stage(&run, RunTest, []string{"x", "z"}, []string{"y"})
	e.ExecuteRun(tester, ref, &run)
	if want := []bool{true, false, true}; !slices.Equal(run.Bools, want) {
		t.Fatalf("test run answered %v, want %v", run.Bools, want)
	}
}

// A chunk whose charge is refused inserts nothing: the next chunk adding the
// same item finds it new. The bucket holds two mutations and refills too
// slowly to matter; a refusal spends nothing, so the middle chunk needs two
// items to be refused while the last, of one, is admitted.
func TestExecuteRunRefusedChunkInsertsNothing(t *testing.T) {
	e, ref := runFixture(t, RateLimitConfig{MutationsPerSec: 1e-6, Burst: 2}, service.Config{Shards: 8})
	var run Run
	stage(&run, RunAdd, []string{"a"}, []string{"b", "b"}, []string{"b"})
	e.ExecuteRun(tester, ref, &run)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	busy := []bool{run.Chunks[0].Busy, run.Chunks[1].Busy, run.Chunks[2].Busy}
	if want := []bool{false, true, false}; !slices.Equal(busy, want) {
		t.Fatalf("busy chunks %v, want %v", busy, want)
	}
	if run.Chunks[1].RetrySecs < 1 {
		t.Errorf("refused chunk's retry hint = %d, want ≥ 1", run.Chunks[1].RetrySecs)
	}
	if want := []bool{true, true}; !slices.Equal(run.Bools, want) {
		t.Fatalf("admitted chunks [a] [b] answered %v, want %v", run.Bools, want)
	}
	if n := ref.f.Store().Count(); n != 2 {
		t.Errorf("Count = %d, want 2: the refused chunk must insert nothing", n)
	}
	if ok, refused := allowed(e, ref); ok != 2 || refused != 2 {
		t.Errorf("accounting: %d allowed, %d throttled; want 2, 2", ok, refused)
	}
}

// A remove run on a filter that cannot delete fails as a whole, and the
// charges stand: the commands were well-formed and the filter did the work
// of refusing them.
func TestExecuteRunRemoveOnBloomKeepsCharges(t *testing.T) {
	e, ref := runFixture(t, RateLimitConfig{}, service.Config{Shards: 8})
	var run Run
	stage(&run, RunRemove, []string{"a"}, []string{"b", "c"})
	e.ExecuteRun(tester, ref, &run)
	if !errors.Is(run.Err, service.ErrNotRemovable) {
		t.Fatalf("Err = %v, want ErrNotRemovable", run.Err)
	}
	if len(run.Bools) != 0 {
		t.Errorf("a failed run answered %v", run.Bools)
	}
	if ok, _ := allowed(e, ref); ok != 3 {
		t.Errorf("accounting: %d mutations allowed, want 3", ok)
	}
}

// BenchmarkExecuteRun prices one 64-item run per operation, per item, for
// add and test runs on naive and hardened filters.
func BenchmarkExecuteRun(b *testing.B) {
	const runLen, runs = 64, 64
	pool := make([][]byte, runLen*runs)
	for i := range pool {
		pool[i] = []byte(fmt.Sprintf("https://bench.example/%d/page", i))
	}
	for _, kind := range []struct {
		name string
		kind RunKind
	}{{"add", RunAdd}, {"test", RunTest}} {
		for _, mode := range []service.Mode{service.ModeNaive, service.ModeHardened} {
			b.Run(fmt.Sprintf("%s/%v", kind.name, mode), func(b *testing.B) {
				e, ref := runFixture(b, RateLimitConfig{}, service.Config{Mode: mode})
				var run Run
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := i % runs * runLen
					run.Reset(kind.kind)
					run.Items = append(run.Items, pool[lo:lo+runLen]...)
					run.AddChunk(runLen)
					e.ExecuteRun(tester, ref, &run)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runLen), "ns/item")
			})
		}
	}
}
