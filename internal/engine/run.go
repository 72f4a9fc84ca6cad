package engine

// Run-collapsing: the engine-side half of the RESP plane's pipelining
// optimization. A pipelined connection often sends long runs of the same
// command against the same filter (BF.ADD x1, BF.ADD x2, ...); the codec
// stages them into one Run and the engine executes the whole run with one
// or two store passes instead of per-command lock round-trips. Charging
// stays per command: each staged command is a Chunk charged separately at
// execution time, so a collapsed run spends exactly what the same
// commands would have spent uncollapsed, and a budget that runs dry
// mid-run refuses exactly the commands it would have refused — replies
// come back in command order with per-chunk busy markers.

// RunKind selects the collapsed operation of a Run.
type RunKind int

const (
	// RunAdd is a collapsed BF.ADD/BF.MADD run: insert, replying novelty
	// (true when the item was not already claimed present).
	RunAdd RunKind = iota + 1
	// RunTest is a collapsed BF.EXISTS/BF.MEXISTS run: membership only.
	RunTest
	// RunRemove is a collapsed CF.DEL/CF.MDEL run: counting deletion.
	RunRemove
)

// Chunk is one staged command's slice of a Run: N consecutive items. The
// engine marks chunks Busy as budgets run out; the codec renders those in
// place of results.
type Chunk struct {
	// N is how many items of the run's Items belong to this command.
	N int
	// Busy is set by ExecuteRun when this command's charge was refused.
	Busy bool
	// RetrySecs is the retry hint accompanying Busy.
	RetrySecs int64
}

// Run is a staged sequence of same-kind, same-filter commands. The codec
// appends validated items and one Chunk per command, then calls
// ExecuteRun; afterwards Bools holds one answer per *surviving* item in
// order (busy chunks contribute none), or Err holds a whole-run failure
// (capability error on RunRemove) that applies to every non-busy chunk.
type Run struct {
	Kind   RunKind
	Items  [][]byte
	Chunks []Chunk
	Bools  []bool
	Err    error

	// itemScratch backs busy-chunk compaction without per-run allocation.
	itemScratch [][]byte
}

// maxRetainedItems is the largest staging a Run keeps between uses. A Run
// lives as long as its connection, and one oversized pipeline must not pin
// item, answer and compaction slices sized by it (24 + 24 + 1 bytes an item)
// for that long. It equals service's cap on pooled batch scratch.
const maxRetainedItems = 4096

// Reset clears the run for reuse, keeping capacity up to maxRetainedItems.
func (r *Run) Reset(kind RunKind) {
	if cap(r.Items) > maxRetainedItems {
		r.Items, r.Bools, r.itemScratch = nil, nil, nil
	}
	r.Kind = kind
	r.Items = r.Items[:0]
	r.Chunks = r.Chunks[:0]
	r.Bools = r.Bools[:0]
	r.Err = nil
}

// Add stages one command of n items (already appended to Items).
func (r *Run) AddChunk(n int) {
	r.Chunks = append(r.Chunks, Chunk{N: n})
}

// ExecuteRun charges and executes a staged run as p against ref. Mutating
// kinds charge chunk by chunk in staging order — the same order and the
// same per-command granularity as unpipelined execution — then the items
// of every admitted chunk go through the store in one batch pass.
func (e *Engine) ExecuteRun(p Principal, ref FilterRef, run *Run) {
	run.Bools = run.Bools[:0]
	run.Err = nil
	if len(run.Chunks) == 0 {
		return
	}

	items := run.Items
	if run.Kind != RunTest {
		anyBusy := false
		for i := range run.Chunks {
			c := &run.Chunks[i]
			if err := e.charge(p, ref, c.N); err != nil {
				busy := err.(*BusyError)
				c.Busy, c.RetrySecs = true, busy.RetrySecs
				anyBusy = true
			}
		}
		if anyBusy {
			// Compact the admitted chunks' items so the store pass only
			// sees what was actually paid for.
			run.itemScratch = run.itemScratch[:0]
			off := 0
			for _, c := range run.Chunks {
				if !c.Busy {
					run.itemScratch = append(run.itemScratch, run.Items[off:off+c.N]...)
				}
				off += c.N
			}
			items = run.itemScratch
		}
		if len(items) == 0 {
			return
		}
	}

	st := ref.f.Store()
	switch run.Kind {
	case RunAdd:
		// Novelty semantics: reply whether each item was new. One
		// TestBatch before the AddBatch answers that for the whole run —
		// the collapse that makes pipelined BF.ADD cheap.
		run.Bools = st.TestBatch(run.Bools, items)
		st.AddBatch(items)
		for i := range run.Bools {
			run.Bools[i] = !run.Bools[i]
		}
	case RunTest:
		run.Bools = st.TestBatch(run.Bools, items)
	case RunRemove:
		removed, err := st.RemoveBatch(items)
		if err != nil {
			// Capability refusal: the charges stand (the commands were
			// well-formed; the filter did the work of refusing them) and
			// every admitted chunk reports the error.
			run.Err = err
			return
		}
		run.Bools = append(run.Bools, removed...)
	}
}
