package engine

import (
	"bytes"
	"errors"
	"testing"

	"evilbloom/internal/service"
)

// The item commands driven directly, on a filter that holds two items: a
// malformed batch is invalid and costs nothing, a refused charge applies
// nothing, a read is never charged, and a remove the backend cannot perform
// keeps its charge.
func TestItemCommands(t *testing.T) {
	counting := service.Config{Shards: 2, Variant: service.VariantCounting}
	bloom := service.Config{Shards: 2}
	budget := RateLimitConfig{MutationsPerSec: 0.001, Burst: 2}
	three := [][]byte{[]byte("x"), []byte("y"), []byte("z")}
	type row struct {
		name  string
		rate  RateLimitConfig
		cfg   service.Config
		cmd   string // add, test or remove
		items [][]byte
		kind  Kind             // 0: the command succeeds
		is    func(error) bool // the error's shape, beyond its kind
		// charged and throttled are tester's accounting afterwards.
		charged, throttled uint64
	}
	var rows []row
	for _, cmd := range []string{"add", "test", "remove"} {
		rows = append(rows,
			row{name: cmd + "/empty batch", cfg: counting, cmd: cmd, kind: KindInvalid,
				is: func(err error) bool { return errors.Is(err, ErrEmptyBatch) }},
			row{name: cmd + "/oversized batch", cfg: counting, cmd: cmd, kind: KindInvalid,
				items: make([][]byte, service.MaxBatch+1),
				is: func(err error) bool {
					var e *BatchTooLargeError
					return errors.As(err, &e) && e.N == service.MaxBatch+1
				}},
			row{name: cmd + "/empty item", cfg: counting, cmd: cmd, kind: KindInvalid,
				items: [][]byte{[]byte("a"), {}},
				is: func(err error) bool {
					var e *ItemError
					return errors.As(err, &e) && e.Index == 1 && e.Len == 0
				}},
			row{name: cmd + "/oversized item", cfg: counting, cmd: cmd, kind: KindInvalid,
				items: [][]byte{bytes.Repeat([]byte("a"), service.MaxItemLen+1)},
				is: func(err error) bool {
					var e *ItemError
					return errors.As(err, &e) && e.Index == 0 && e.Len == service.MaxItemLen+1
				}},
		)
	}
	busy := func(err error) bool {
		var e *BusyError
		return errors.As(err, &e) && e.N == 3 && e.RetrySecs >= 1
	}
	rows = append(rows,
		row{name: "add/over budget", rate: budget, cfg: counting, cmd: "add", items: three,
			kind: KindBusy, is: busy, throttled: 3},
		row{name: "remove/over budget", rate: budget, cfg: counting, cmd: "remove", items: three,
			kind: KindBusy, is: busy, throttled: 3},
		row{name: "test/over budget is free", rate: budget, cfg: counting, cmd: "test", items: three},
		row{name: "remove/bloom", cfg: bloom, cmd: "remove", items: three[:1], kind: KindCapability,
			is: func(err error) bool { return errors.Is(err, service.ErrNotRemovable) }, charged: 1},
	)

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			e, ref := runFixture(t, tc.rate, tc.cfg)
			if _, err := e.AddBatch(Principal{ID: "seeder"}, ref, three[:2]); err != nil {
				t.Fatal(err)
			}
			var err error
			switch tc.cmd {
			case "add":
				_, err = e.AddBatch(tester, ref, tc.items)
			case "test":
				_, err = e.TestBatch(ref, nil, tc.items)
			case "remove":
				_, err = e.RemoveBatch(tester, ref, tc.items)
			}
			if k := Classify(err); k != tc.kind {
				t.Fatalf("error %v classifies as %d, want %d", err, k, tc.kind)
			}
			if tc.is != nil && !tc.is(err) {
				t.Errorf("error %#v has the wrong shape", err)
			}
			if n := ref.f.Store().Count(); n != 2 {
				t.Errorf("Count = %d after a refused or read-only command, want 2", n)
			}
			if ok, throttled := allowed(e, ref); ok != tc.charged || throttled != tc.throttled {
				t.Errorf("tester charged %d, throttled %d; want %d, %d", ok, throttled, tc.charged, tc.throttled)
			}
		})
	}
}
