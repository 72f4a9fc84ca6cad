package httpapi

import (
	"net/http"
	"unicode/utf8"

	"evilbloom/internal/engine"
)

// The item routes as they were before itembody.go: encoding/json in
// (decode), one string and one []byte per key, reflection out (writeJSON).
// Kept, from this test file only, as the oracle FuzzItemBody and the limit
// tests compare the scanner-backed handlers against, and as the typed decode
// targets of the older tests.

// addResponse answers add and add-batch.
type addResponse struct {
	Added int    `json:"added"`
	Count uint64 `json:"count"`
}

// testResponse answers test.
type testResponse struct {
	Present bool `json:"present"`
}

// testBatchResponse answers test-batch, Present in input order.
type testBatchResponse struct {
	Present []bool `json:"present"`
}

// removeResponse answers remove.
type removeResponse struct {
	Removed int    `json:"removed"`
	Count   uint64 `json:"count"`
}

// removeBatchResponse answers remove-batch, Removed in input order
// (false marks items the filter believed absent and refused to remove).
type removeBatchResponse struct {
	Removed []bool `json:"removed"`
	Count   uint64 `json:"count"`
}

// itemOps names the six item routes, in the order the fuzzer indexes them.
var itemOps = []string{"add", "test", "add-batch", "test-batch", "remove", "remove-batch"}

func toBytes(items []string) [][]byte {
	out := make([][]byte, len(items))
	for i, it := range items {
		out[i] = []byte(it)
	}
	return out
}

// oracleItemOp serves one item route the pre-scanner way.
func oracleItemOp(s *Server, w http.ResponseWriter, r *http.Request, ref engine.FilterRef, op string) {
	var one itemRequest
	var many batchRequest
	var dst any = &one
	batch := op == "add-batch" || op == "test-batch" || op == "remove-batch"
	if batch {
		dst = &many
	}
	if !decode(w, r, dst) {
		return
	}
	var p engine.Principal
	if op != "test" && op != "test-batch" {
		var ok bool
		if p, ok = s.principal(w, r); !ok {
			return
		}
	}
	// A single-item route validates its item (for its own error wording),
	// then runs as a one-item batch.
	items := toBytes(many.Items)
	if !batch {
		items = [][]byte{[]byte(one.Item)}
		if err := engine.ValidateItem(items[0]); err != nil {
			writeEngineError(w, err)
			return
		}
	}
	var res any
	var err error
	switch op {
	case "add", "add-batch":
		var ar engine.AddResult
		ar, err = s.eng.AddBatch(p, ref, items)
		res = addResponse{Added: ar.Added, Count: ar.Count}
	case "test":
		var present []bool
		if present, err = s.eng.TestBatch(ref, nil, items); err == nil {
			res = testResponse{Present: present[0]}
		}
	case "test-batch":
		var present []bool
		present, err = s.eng.TestBatch(ref, make([]bool, 0, len(items)), items)
		res = testBatchResponse{Present: present}
	case "remove":
		var rr engine.RemoveBatchResult
		if rr, err = s.eng.RemoveBatch(p, ref, items); err == nil && !rr.Removed[0] {
			err = engine.ErrNotInFilter
		}
		res = removeResponse{Removed: 1, Count: rr.Count}
	case "remove-batch":
		var rr engine.RemoveBatchResult
		rr, err = s.eng.RemoveBatch(p, ref, items)
		res = removeBatchResponse{Removed: rr.Removed, Count: rr.Count}
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// scanStringByteLoop is scanString as it was before it skipped plain runs a
// word at a time: one byte per turn of the switch. TestScanStringMatchesByteLoop
// and FuzzScanString hold scanString to it.
func scanStringByteLoop(b []byte, i int) (end int, escaped bool) {
	if i >= len(b) || b[i] != '"' {
		return -1, false
	}
	for i++; i < len(b); {
		c := b[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			return i, escaped
		case c == '\\' && i+1 < len(b) && b[i+1] == 'u':
			if _, ok := hex4(b, i+2); !ok {
				return -1, false
			}
			escaped = true
			i += 6
		case c == '\\' && i+1 < len(b) && unescaped[b[i+1]] != 0:
			escaped = true
			i += 2
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return -1, false
			}
			i += size
		default: // control byte, unknown or truncated escape
			return -1, false
		}
	}
	return -1, false
}
