package httpapi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"evilbloom/internal/service"
)

// The PUT-with-snapshot-body path end to end: export a filter, re-create a
// clone under a new name, and exercise the rejection statuses (corrupt 400,
// hardened 409, name conflict 409).
func TestCreateFromSnapshotHTTP(t *testing.T) {
	ts, _ := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/src",
		FilterSpec{Variant: "counting", Mode: "naive", Shards: 2, ShardBits: 1024, HashCount: 4, Seed: 3}, nil)
	items := []string{"alpha", "beta", "gamma", "delta"}
	doJSON(t, "POST", ts.URL+"/v2/filters/src/add-batch", batchRequest{Items: items}, nil)

	fetchSnap := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v2/filters/src/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	putSnap := func(name string, blob []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/filters/"+name, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body) //nolint:errcheck
		return resp.StatusCode, body.String()
	}

	snap := fetchSnap()
	if code, body := putSnap("clone", snap); code != http.StatusCreated {
		t.Fatalf("create-from-snapshot: status %d (%s)", code, body)
	}
	var info FilterInfo
	doJSON(t, "GET", ts.URL+"/v2/filters/clone", nil, &info)
	if info.Variant != "counting" || info.Seed == nil || *info.Seed != 3 {
		t.Errorf("clone info %+v", info)
	}
	for _, it := range items {
		var tr testResponse
		doJSON(t, "POST", ts.URL+"/v2/filters/clone/test", itemRequest{Item: it}, &tr)
		if !tr.Present {
			t.Errorf("clone lost %q", it)
		}
	}
	var srcStats, cloneStats service.Stats
	doJSON(t, "GET", ts.URL+"/v2/filters/src/stats", nil, &srcStats)
	doJSON(t, "GET", ts.URL+"/v2/filters/clone/stats", nil, &cloneStats)
	if !reflect.DeepEqual(srcStats, cloneStats) {
		t.Errorf("clone stats diverge:\n  src=%+v\n  dst=%+v", srcStats, cloneStats)
	}

	// Rejections.
	if code, _ := putSnap("clone", snap); code != http.StatusConflict {
		t.Errorf("snapshot onto taken name: status %d, want 409", code)
	}
	bad := bytes.Clone(snap)
	bad[len(bad)-1] ^= 0xff // trailer CRC
	if code, _ := putSnap("corrupt", bad); code != http.StatusBadRequest {
		t.Errorf("corrupt envelope: status %d, want 400", code)
	}
	if code, _ := putSnap("short", snap[:len(snap)-9]); code != http.StatusBadRequest {
		t.Errorf("truncated envelope: status %d, want 400", code)
	}
	doJSON(t, "PUT", ts.URL+"/v2/filters/hard", FilterSpec{Mode: "hardened", Shards: 1, ShardBits: 1024, HashCount: 4}, nil)
	resp, err := http.Get(ts.URL + "/v2/filters/hard/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var hsnap bytes.Buffer
	hsnap.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if code, body := putSnap("hard2", hsnap.Bytes()); code != http.StatusConflict {
		t.Errorf("hardened snapshot over the wire: status %d (%s), want 409", code, body)
	}
}

// The compact endpoint: 409 on a memory-only filter, generation bump on a
// durable one.
func TestCompactHTTP(t *testing.T) {
	// Memory-only server.
	ts, _ := newRegistryTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v2/filters/mem", FilterSpec{Shards: 1, ShardBits: 1024, HashCount: 4}, nil)
	if code := doJSON(t, "POST", ts.URL+"/v2/filters/mem/compact", nil, nil); code != http.StatusConflict {
		t.Errorf("compact on memory-only filter: status %d, want 409", code)
	}

	// Durable server.
	reg := service.NewRegistry()
	if _, err := reg.OpenDataDir(t.TempDir(), service.SyncNever); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewRegistryServer(reg))
	defer ts2.Close()
	defer reg.Close() //nolint:errcheck
	doJSON(t, "PUT", ts2.URL+"/v2/filters/dur", FilterSpec{Shards: 1, ShardBits: 1024, HashCount: 4}, nil)
	doJSON(t, "POST", ts2.URL+"/v2/filters/dur/add", itemRequest{Item: "x"}, nil)
	var cr compactResponse
	if code := doJSON(t, "POST", ts2.URL+"/v2/filters/dur/compact", nil, &cr); code != 200 || !cr.Compacted || cr.Generation != 1 {
		t.Errorf("compact: code %d resp %+v, want 200 generation 1", code, cr)
	}
	var info FilterInfo
	doJSON(t, "GET", ts2.URL+"/v2/filters/dur", nil, &info)
	found := false
	for _, c := range info.Capabilities {
		found = found || c == "compact"
	}
	if !found {
		t.Errorf("durable filter does not advertise compact: %+v", info.Capabilities)
	}
}

// The HTTP twin of service.TestCreateFromSnapshotStreamFailures: an upload
// that fails while it streams into the new filter — the checksum included,
// known only after the last shard is written — answers 400 and leaves no
// filter behind (404) and no directory, on a durable server.
func TestCreateFromSnapshotStreamFailures(t *testing.T) {
	dir := t.TempDir()
	reg := service.NewRegistry()
	if _, err := reg.OpenDataDir(dir, service.SyncNever); err != nil {
		t.Fatal(err)
	}
	defer reg.Close() //nolint:errcheck
	ts := httptest.NewServer(NewRegistryServer(reg))
	defer ts.Close()

	src, err := service.NewSharded(service.Config{Shards: 2, ShardBits: 4096, HashCount: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		src.Add([]byte(fmt.Sprintf("item-%d", i)))
	}
	env, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	put := func(body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/filters/up", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	const hdr = 72
	blobLen := binary.LittleEndian.Uint64(env[hdr:])
	lying := bytes.Clone(env)
	binary.LittleEndian.PutUint64(lying[hdr+8+int(blobLen):], blobLen+8)
	for name, body := range map[string][]byte{
		"crc last byte":  append(bytes.Clone(env[:len(env)-1]), env[len(env)-1]^0x01),
		"trailing byte":  append(bytes.Clone(env), 0),
		"cut in length":  env[:hdr+3],
		"cut mid":        env[:len(env)/2],
		"cut before crc": env[:len(env)-5],
		"blob length":    resealEnvelope(lying),
	} {
		if code := put(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if code := doJSON(t, "GET", ts.URL+"/v2/filters/up", nil, nil); code != http.StatusNotFound {
			t.Errorf("%s: the failed upload's filter answers %d, want 404", name, code)
		}
		if _, err := os.Stat(filepath.Join(dir, "up")); !os.IsNotExist(err) {
			t.Errorf("%s: the failed upload left its directory (%v)", name, err)
		}
	}
	if code := put(env); code != http.StatusCreated {
		t.Fatalf("sound upload after the failures: status %d", code)
	}
}
