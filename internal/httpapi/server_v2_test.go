package httpapi

import (
	"bytes"
	"encoding/json"
	"evilbloom/internal/service"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newRegistryTestServer spins up an empty multi-filter server.
func newRegistryTestServer(t *testing.T) (*httptest.Server, *service.Registry) {
	t.Helper()
	reg := service.NewRegistry()
	ts := httptest.NewServer(NewRegistryServer(reg))
	t.Cleanup(ts.Close)
	return ts, reg
}

// doJSON issues method path with body and decodes the response into out.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestV2FilterLifecycle(t *testing.T) {
	ts, reg := newRegistryTestServer(t)

	// Create a counting filter.
	var created FilterInfo
	code := doJSON(t, "PUT", ts.URL+"/v2/filters/blocklist",
		FilterSpec{Variant: "counting", Mode: "naive", Shards: 2, ShardBits: 3200, HashCount: 4, Seed: 9}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	if created.Name != "blocklist" || created.Variant != "counting" || created.CounterWidth != 4 ||
		created.Overflow != "saturate" || created.Seed == nil || *created.Seed != 9 {
		t.Errorf("created info %+v", created)
	}
	if reg.Len() != 1 {
		t.Errorf("registry holds %d filters", reg.Len())
	}

	// Re-creating the name conflicts.
	if code := doJSON(t, "PUT", ts.URL+"/v2/filters/blocklist", FilterSpec{}, nil); code != http.StatusConflict {
		t.Errorf("duplicate create status %d, want 409", code)
	}

	// A second, hardened bloom filter; list returns both, sorted.
	if code := doJSON(t, "PUT", ts.URL+"/v2/filters/seen", FilterSpec{Mode: "hardened"}, nil); code != http.StatusCreated {
		t.Fatalf("second create status %d", code)
	}
	var list listResponse
	if code := doJSON(t, "GET", ts.URL+"/v2/filters", nil, &list); code != 200 {
		t.Fatalf("list status %d", code)
	}
	if len(list.Filters) != 2 || list.Filters[0].Name != "blocklist" || list.Filters[1].Name != "seen" {
		t.Errorf("list %+v", list)
	}
	if list.Filters[1].Seed != nil {
		t.Errorf("hardened filter leaks a seed in the listing: %+v", list.Filters[1])
	}

	// Get one filter; info op answers the same document.
	var byName, byOp FilterInfo
	doJSON(t, "GET", ts.URL+"/v2/filters/blocklist", nil, &byName)
	doJSON(t, "GET", ts.URL+"/v2/filters/blocklist/info", nil, &byOp)
	a, _ := json.Marshal(byName)
	b, _ := json.Marshal(byOp)
	if !bytes.Equal(a, b) {
		t.Errorf("GET filter %s != GET filter/info %s", a, b)
	}

	// Delete; the name becomes free, operations on it 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/filters/blocklist", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if code := doJSON(t, "POST", ts.URL+"/v2/filters/blocklist/add", itemRequest{Item: "x"}, nil); code != http.StatusNotFound {
		t.Errorf("op on deleted filter status %d, want 404", code)
	}
	if code := doJSON(t, "PUT", ts.URL+"/v2/filters/blocklist", FilterSpec{}, nil); code != http.StatusCreated {
		t.Errorf("re-create after delete status %d, want 201", code)
	}
}

func TestV2ItemOpsAndCapabilities(t *testing.T) {
	ts, _ := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/counts",
		FilterSpec{Variant: "counting", Shards: 1, ShardBits: 4096, HashCount: 4, Overflow: "saturate", CounterWidth: 8}, nil)
	doJSON(t, "PUT", ts.URL+"/v2/filters/plain", FilterSpec{Shards: 1, ShardBits: 4096, HashCount: 4}, nil)

	base := ts.URL + "/v2/filters/counts"
	var add addResponse
	if code := doJSON(t, "POST", base+"/add", itemRequest{Item: "a"}, &add); code != 200 || add.Count != 1 {
		t.Fatalf("add: code %d resp %+v", code, add)
	}
	var tr testResponse
	doJSON(t, "POST", base+"/test", itemRequest{Item: "a"}, &tr)
	if !tr.Present {
		t.Error("inserted item absent")
	}

	// Remove round trip: present → removed; absent → 409; test now false.
	var rm removeResponse
	if code := doJSON(t, "POST", base+"/remove", itemRequest{Item: "a"}, &rm); code != 200 || rm.Removed != 1 || rm.Count != 0 {
		t.Fatalf("remove: code %d resp %+v", code, rm)
	}
	var er errorResponse
	if code := doJSON(t, "POST", base+"/remove", itemRequest{Item: "a"}, &er); code != http.StatusConflict {
		t.Errorf("second remove: code %d (%+v), want 409", code, er)
	}
	doJSON(t, "POST", base+"/test", itemRequest{Item: "a"}, &tr)
	if tr.Present {
		t.Error("removed item still present")
	}

	// Batch remove with per-item outcomes.
	doJSON(t, "POST", base+"/add-batch", batchRequest{Items: []string{"a", "b"}}, nil)
	var rb removeBatchResponse
	if code := doJSON(t, "POST", base+"/remove-batch", batchRequest{Items: []string{"a", "zzz-absent"}}, &rb); code != 200 {
		t.Fatalf("remove-batch status %d", code)
	}
	if len(rb.Removed) != 2 || !rb.Removed[0] || rb.Removed[1] {
		t.Errorf("remove-batch outcomes %v, want [true false]", rb.Removed)
	}

	// Stats carry the variant and counting parameters.
	var st service.Stats
	doJSON(t, "GET", base+"/stats", nil, &st)
	if st.Variant != "counting" || st.Count != 1 {
		t.Errorf("stats %+v", st)
	}

	// The bloom filter answers removes with a 405 capability error.
	for _, op := range []string{"/remove", "/remove-batch"} {
		var er errorResponse
		body := any(itemRequest{Item: "a"})
		if op == "/remove-batch" {
			body = batchRequest{Items: []string{"a"}}
		}
		code := doJSON(t, "POST", ts.URL+"/v2/filters/plain"+op, body, &er)
		if code != http.StatusMethodNotAllowed {
			t.Errorf("%s on bloom: status %d, want 405", op, code)
		}
		if !strings.Contains(er.Error, "variant=counting") {
			t.Errorf("%s capability error %q does not name the fix", op, er.Error)
		}
	}
}

// A counting filter created without "overflow" saturates: an item added 17
// times in one add-batch — one more than a 4-bit counter holds — tests
// present, and still does after one removal. Under wrap the sixteenth add
// rolls its counters to zero, the seventeenth leaves them at one, and that
// removal would erase it.
func TestV2RepeatedAddKeepsItemUnderDefaultOverflow(t *testing.T) {
	ts, _ := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/hot", FilterSpec{Variant: "counting", Shards: 1, ShardBits: 4096, HashCount: 4}, nil)
	base := ts.URL + "/v2/filters/hot"
	items := make([]string, 17)
	for i := range items {
		items[i] = "x"
	}
	if code := doJSON(t, "POST", base+"/add-batch", batchRequest{Items: items}, nil); code != 200 {
		t.Fatalf("add-batch: code %d", code)
	}
	var tr testResponse
	if doJSON(t, "POST", base+"/test", itemRequest{Item: "x"}, &tr); !tr.Present {
		t.Fatal("x absent after 17 adds")
	}
	var rm removeResponse
	if code := doJSON(t, "POST", base+"/remove", itemRequest{Item: "x"}, &rm); code != 200 || rm.Removed != 1 {
		t.Fatalf("remove: code %d resp %+v", code, rm)
	}
	if doJSON(t, "POST", base+"/test", itemRequest{Item: "x"}, &tr); !tr.Present {
		t.Fatal("x absent after 17 adds and one removal")
	}
}

func TestV2Validation(t *testing.T) {
	ts, _ := newRegistryTestServer(t)
	cases := []struct {
		name string
		do   func() int
		want int
	}{
		{"bad variant", func() int {
			return doJSON(t, "PUT", ts.URL+"/v2/filters/x", FilterSpec{Variant: "cuckoo"}, nil)
		}, 400},
		{"bad mode", func() int {
			return doJSON(t, "PUT", ts.URL+"/v2/filters/x", FilterSpec{Mode: "evil"}, nil)
		}, 400},
		{"bad overflow", func() int {
			return doJSON(t, "PUT", ts.URL+"/v2/filters/x", FilterSpec{Variant: "counting", Overflow: "explode"}, nil)
		}, 400},
		{"counter width on bloom", func() int {
			return doJSON(t, "PUT", ts.URL+"/v2/filters/x", FilterSpec{CounterWidth: 4}, nil)
		}, 400},
		{"seed on hardened", func() int {
			return doJSON(t, "PUT", ts.URL+"/v2/filters/x", FilterSpec{Mode: "hardened", Seed: 7}, nil)
		}, 400},
		{"oversized geometry", func() int {
			return doJSON(t, "PUT", ts.URL+"/v2/filters/x", FilterSpec{Shards: 1, ShardBits: service.MaxFilterBits + 1, HashCount: 4}, nil)
		}, 400},
		{"geometry whose bit product wraps mod 2^64", func() int {
			// 8 × 2^61 wraps to 0: must be rejected, not allocated.
			return doJSON(t, "PUT", ts.URL+"/v2/filters/x", FilterSpec{Shards: 8, ShardBits: 1 << 61, HashCount: 4}, nil)
		}, 400},
		{"shard count beyond service.MaxShards", func() int {
			return doJSON(t, "PUT", ts.URL+"/v2/filters/x", FilterSpec{Shards: service.MaxShards * 2, ShardBits: 64, HashCount: 2}, nil)
		}, 400},
		{"bad name", func() int {
			return doJSON(t, "PUT", ts.URL+"/v2/filters/.hidden", FilterSpec{}, nil)
		}, 400},
		{"unknown spec field", func() int {
			return doJSON(t, "PUT", ts.URL+"/v2/filters/x", map[string]any{"key": "deadbeef"}, nil)
		}, 400},
		{"unknown filter op", func() int {
			doJSON(t, "PUT", ts.URL+"/v2/filters/ok", FilterSpec{}, nil)
			return doJSON(t, "POST", ts.URL+"/v2/filters/ok/explode", itemRequest{Item: "x"}, nil)
		}, 404},
		{"op on unknown filter", func() int {
			return doJSON(t, "POST", ts.URL+"/v2/filters/ghost/add", itemRequest{Item: "x"}, nil)
		}, 404},
		{"get unknown filter", func() int {
			return doJSON(t, "GET", ts.URL+"/v2/filters/ghost", nil, nil)
		}, 404},
		{"delete unknown filter", func() int {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/filters/ghost", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, 404},
		{"post on list", func() int {
			return doJSON(t, "POST", ts.URL+"/v2/filters", FilterSpec{}, nil)
		}, 405},
		{"post on v2 stats", func() int {
			return doJSON(t, "POST", ts.URL+"/v2/filters/ok/stats", itemRequest{Item: "x"}, nil)
		}, 405},
		{"unversioned route, even with a default filter", func() int {
			doJSON(t, "PUT", ts.URL+"/v2/filters/"+service.DefaultFilterName, FilterSpec{}, nil)
			return doJSON(t, "POST", ts.URL+"/v1/add", itemRequest{Item: "x"}, nil)
		}, 404},
	}
	for _, tc := range cases {
		if got := tc.do(); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Snapshots export every shard's state and reflect the occupancy.
func TestV2Snapshot(t *testing.T) {
	ts, _ := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/snap",
		FilterSpec{Variant: "counting", Shards: 2, ShardBits: 1024, HashCount: 4}, nil)
	fetch := func() []byte {
		resp, err := http.Get(ts.URL + "/v2/filters/snap/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("snapshot status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("snapshot content type %q", ct)
		}
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	empty := fetch()
	// The export travels in the versioned, checksummed envelope: magic,
	// geometry header, CRC — round-tripping it through create-from-snapshot
	// validates all three and proves the geometry survived.
	rt := service.NewRegistry()
	f, err := rt.CreateFromSnapshot("rt", bytes.NewReader(empty))
	if err != nil {
		t.Fatalf("snapshot envelope does not restore: %v", err)
	}
	if st := f.Store(); st.Shards() != 2 || st.ShardBits() != 1024 || st.K() != 4 || st.Variant() != service.VariantCounting {
		t.Errorf("restored %d×%d k=%d %v, want 2×1024 k=4 counting",
			st.Shards(), st.ShardBits(), st.K(), st.Variant())
	}
	doJSON(t, "POST", ts.URL+"/v2/filters/snap/add", itemRequest{Item: "x"}, nil)
	after := fetch()
	if len(after) != len(empty) {
		t.Errorf("snapshot size changed %d -> %d; geometry is fixed", len(empty), len(after))
	}
	if bytes.Equal(empty, after) {
		t.Error("snapshot unchanged by an insertion")
	}
	if _, err := rt.CreateFromSnapshot("rt2", bytes.NewReader(after)); err != nil {
		t.Fatalf("post-insertion envelope does not restore: %v", err)
	}
	// Corrupting any byte must be detected by the checksum.
	after[len(after)/2] ^= 0xff
	if _, err := rt.CreateFromSnapshot("rt3", bytes.NewReader(after)); err == nil {
		t.Error("corrupted envelope restored cleanly")
	}
}
