package httpapi

import (
	"net/http"

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

// removeResponse answers /v2/.../remove (no v1 equivalent).
type removeResponse struct {
	Removed int    `json:"removed"`
	Count   uint64 `json:"count"`
}

// removeBatchResponse answers /v2/.../remove-batch, Removed in input order
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
	var res any
	var err error
	switch op {
	case "add":
		var ar engine.AddResult
		ar, err = s.eng.Add(p, ref, []byte(one.Item))
		res = addResponse{Added: ar.Added, Count: ar.Count}
	case "test":
		var present bool
		present, err = s.eng.Test(ref, []byte(one.Item))
		res = testResponse{Present: present}
	case "add-batch":
		var ar engine.AddResult
		ar, err = s.eng.AddBatch(p, ref, toBytes(many.Items))
		res = addResponse{Added: ar.Added, Count: ar.Count}
	case "test-batch":
		items := toBytes(many.Items)
		var present []bool
		present, err = s.eng.TestBatch(ref, make([]bool, 0, len(items)), items)
		res = testBatchResponse{Present: present}
	case "remove":
		var rr engine.RemoveResult
		rr, err = s.eng.Remove(p, ref, []byte(one.Item))
		res = removeResponse{Removed: rr.Removed, Count: rr.Count}
	case "remove-batch":
		var rr engine.RemoveBatchResult
		rr, err = s.eng.RemoveBatch(p, ref, toBytes(many.Items))
		res = removeBatchResponse{Removed: rr.Removed, Count: rr.Count}
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
