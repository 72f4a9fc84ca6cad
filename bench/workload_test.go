package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

func TestKeyShape(t *testing.T) {
	seen := make(map[string]bool)
	lengths := make(map[int]bool)
	for _, uni := range []byte{uniPreload, uniChurn, uniAbsent, uniProbe} {
		for idx := uint64(0); idx < 2000; idx++ {
			key := appendKey(nil, 7, uni, idx)
			if len(key) < 32 || len(key) > 47 {
				t.Fatalf("key %q is %d bytes, want 32 to 47", key, len(key))
			}
			if !bytes.HasPrefix(key, []byte("http://h")) || key[19] != uni {
				t.Fatalf("key %q is not URL-shaped with its universe spelled out", key)
			}
			if seen[string(key)] {
				t.Fatalf("key %q generated twice", key)
			}
			seen[string(key)] = true
			lengths[len(key)] = true
		}
	}
	if len(lengths) != 16 {
		t.Errorf("saw %d distinct key lengths, want all 16", len(lengths))
	}
	if bytes.Equal(appendKey(nil, 1, uniPreload, 5), appendKey(nil, 2, uniPreload, 5)) {
		t.Error("the seed does not reach the key")
	}
	if got := appendKey([]byte("x"), 1, uniProbe, 0xabcdef0123); !bytes.HasPrefix(got, []byte("xhttp://h")) || !bytes.Contains(got, []byte("/p/abcdef0123")) {
		t.Errorf("appendKey does not append, or misplaces the index: %q", got)
	}
}

// streamDigest hashes the first n requests of a connection's request list:
// kind, keys and expectations.
func streamDigest(w workload, seed uint64, conn, n int) string {
	src := newTimedSource(w, seed, conn, uint64(n))
	h := sha256.New()
	var kb keyBatch
	var want []bool
	for {
		add, wnt, ok := src.next(&kb, want[:0])
		if !ok {
			break
		}
		want = wnt
		if add {
			h.Write([]byte{'A'})
		} else {
			h.Write([]byte{'T'})
		}
		for i, key := range kb.slices() {
			h.Write(key)
			if !add && want[i] {
				h.Write([]byte{'+'})
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The request stream is a pure function of (workload, seed, connection).
// The golden digests pin it: a change here changes what every recorded
// baseline measured, and must come with new baselines.
func TestStreamGolden(t *testing.T) {
	golden := map[string]string{
		"resp-read-small/1/0":    "661b5a7ca1b8a5c5353012bf3b242f14993d4cd627b2d90098dde4233bf7f7cd",
		"resp-read-small/1/1":    "536645c6eb334f986b0ee09df93136fe0985aae487b36c92f32bb5235125033d",
		"resp-read-small/2/0":    "6ce0ab382c2c2d95846d04b781e90584632b8d8202f0add6f6a871bf4f9c2025",
		"http-read-small/1/0":    "661b5a7ca1b8a5c5353012bf3b242f14993d4cd627b2d90098dde4233bf7f7cd",
		"resp-read-large/1/0":    "72ae6bb973803440bd5e048d8e145a6d562484a56ccb1703c87f53d3f8dc739d",
		"resp-churn-durable/1/0": "59d0c63b935097ab089a94288b5c067df9ee40810b2f728d6b5411583eec551c",
		"resp-churn-durable/1/1": "48c99ea2b7b8933837e34bd606abb37dc59c36866f89bf5e2ed0f2aec3ad6b44",
	}
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			for conn := 0; conn < conns; conn++ {
				id := w.name + "/" + string(rune('0'+seed)) + "/" + string(rune('0'+conn))
				got := streamDigest(w, seed, conn, 500)
				if again := streamDigest(w, seed, conn, 500); again != got {
					t.Errorf("%s: two generations differ", id)
				}
				if want, pinned := golden[id]; pinned && got != want {
					t.Errorf("%s: stream digest %s, golden %s", id, got, want)
				}
			}
		}
	}
}

func TestChurnStream(t *testing.T) {
	w, err := findWorkload("resp-churn-durable")
	if err != nil {
		t.Fatal(err)
	}
	w = w.quick() // a small churn universe, so the adds wrap around
	const requests = 4000
	added := make(map[string]bool)
	var adds, reads, churnReads int
	src := newTimedSource(w, 3, 1, requests)
	var kb keyBatch
	var want []bool
	for {
		add, wnt, ok := src.next(&kb, want[:0])
		if !ok {
			break
		}
		want = wnt
		keys := kb.slices()
		if len(keys) != itemsPerRequest {
			t.Fatalf("request of %d keys", len(keys))
		}
		for i, key := range keys {
			switch {
			case add:
				if key[19] != uniChurn {
					t.Fatalf("add of %q, outside the churn universe", key)
				}
				added[string(key)] = true
			case want[i] && key[19] == uniChurn:
				churnReads++
				if !added[string(key)] {
					t.Fatalf("read expects %q present before this connection added it", key)
				}
			case want[i] != (key[19] == uniPreload):
				t.Fatalf("key %q expected present=%v", key, want[i])
			}
		}
		if add {
			adds++
		} else {
			reads++
		}
	}
	if adds+reads != requests || adds < requests/5 || adds > requests/3 {
		t.Errorf("%d adds, %d reads of %d requests; want about a quarter adds", adds, reads, requests)
	}
	if churnReads == 0 {
		t.Error("no read ever asked for a churn key")
	}
	// The connection inserts its own residue class only, cyclically.
	if perConn := int(w.churn / conns); len(added) != perConn {
		t.Errorf("%d distinct churn keys added, want the connection's whole share of %d", len(added), perConn)
	}
	ro, _ := findWorkload("resp-read-small")
	src = newTimedSource(ro, 3, 0, 200)
	for {
		add, _, ok := src.next(&kb, nil)
		if !ok {
			break
		}
		if add {
			t.Fatal("a read-only workload yielded an add")
		}
	}
}

func TestRangeSourceCoversItsRange(t *testing.T) {
	var total uint64
	for c := 0; c < conns; c++ {
		from, to := split(1001, c)
		src := &rangeSource{seed: 1, uni: uniProbe, from: from, to: to, batch: 64}
		var kb keyBatch
		for {
			add, want, ok := src.next(&kb, nil)
			if !ok {
				break
			}
			if add || len(want) != len(kb.slices()) || want[0] {
				t.Fatalf("probe request: add=%v want=%v", add, want)
			}
			total += uint64(len(want))
		}
	}
	if total != 1001 {
		t.Errorf("connections covered %d keys of 1001", total)
	}
}

type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkDef(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return def
}

// BENCHMARK.json and the harness must name the same workloads.
func TestBenchmarkDefinitionMatchesHarness(t *testing.T) {
	def := readBenchmarkDef(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, def.Workloads[i].Name, def.Workloads[i].Why, w.name, w.why)
		}
	}
	hasSetup := false
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v: bad bound or direction", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
