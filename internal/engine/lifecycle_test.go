package engine_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"evilbloom/internal/engine"
	"evilbloom/internal/mesh"
	"evilbloom/internal/mesh/meshtest"
	"evilbloom/internal/service"
)

// The registry's one lifecycle hook, installed by engine.New, gives every
// filter a refresh loop and an accounting table however the filter came to
// be, and takes both away on delete.

// lifecycleGeometry is a small naive filter.
var lifecycleGeometry = service.Config{Shards: 1, ShardBits: 256, HashCount: 4, Seed: 3}

// waitRefreshLoops waits for the refresh-loop count to reach want.
func waitRefreshLoops(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for meshtest.RefreshLoopCount() != want {
		if time.Now().After(deadline) {
			t.Fatalf("refresh loops = %d, want %d", meshtest.RefreshLoopCount(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// peerServer answers every digest fetch with 404 after delay, counting the
// fetches; it stands in for a sibling that holds no such filter.
func peerServer(t *testing.T, delay time.Duration) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var fetches atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		time.Sleep(delay)
		http.NotFound(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &fetches
}

// meshEngine wraps reg in an engine on a one-peer mesh that refreshes only
// at boot (the hour-long interval never elapses in a test).
func meshEngine(t *testing.T, reg *service.Registry, peer string) *engine.Engine {
	t.Helper()
	eng := engine.New(reg)
	if err := eng.ConfigureMesh(mesh.PeerConfig{Peers: []string{peer}, Refresh: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // teardown
	return eng
}

// assertWatched checks that name has a refresh loop (its boot fetch lands
// as a failure against the 404 peer) and an accounting table (a charge is
// recorded, which it is not for an unwatched filter).
func assertWatched(t *testing.T, eng *engine.Engine, name string) {
	t.Helper()
	ref, err := eng.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sts, err := eng.PeerStatus(ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(sts) == 1 && sts[0].Failures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("filter %q: no refresh loop fetched its peer: %+v", name, sts)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := eng.AddBatch(engine.Principal{ID: "c"}, ref, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(ref).RateLimit; st.AllowedMutations != 1 || st.Clients != 1 {
		t.Fatalf("filter %q has no accounting table: %+v", name, st)
	}
}

// A filter recovered from a data directory after engine.New is published
// through the hook like any other.
func TestLifecycleRecoveredAfterNew(t *testing.T) {
	dir := t.TempDir()
	first := service.NewRegistry()
	if _, err := first.OpenDataDir(dir, service.SyncNever); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Create("f", lifecycleGeometry); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	peer, _ := peerServer(t, 0)
	base := meshtest.RefreshLoopCount()
	reg := service.NewRegistry()
	eng := meshEngine(t, reg, peer.URL)
	if n, err := reg.OpenDataDir(dir, service.SyncNever); err != nil || n != 1 {
		t.Fatalf("recovered %d filter(s), %v; want 1", n, err)
	}
	assertWatched(t, eng, "f")
	waitRefreshLoops(t, base+1)
}

// bench/ creates its filters and only then calls engine.New: those filters
// are watched when the hook is installed, and their loops start when the
// mesh is configured.
func TestLifecycleCreatedBeforeNew(t *testing.T) {
	peer, _ := peerServer(t, 0)
	base := meshtest.RefreshLoopCount()
	reg := service.NewRegistry()
	if _, err := reg.Create("f", lifecycleGeometry); err != nil {
		t.Fatal(err)
	}
	eng := meshEngine(t, reg, peer.URL)
	assertWatched(t, eng, "f")
	waitRefreshLoops(t, base+1)
}

// Delete returns only once the filter's refresh goroutine has exited, even
// when that goroutine is in the middle of a slow exchange.
func TestLifecycleDeleteWaitsForRefreshLoop(t *testing.T) {
	peer, fetches := peerServer(t, 50*time.Millisecond)
	base := meshtest.RefreshLoopCount()
	reg := service.NewRegistry()
	eng := meshEngine(t, reg, peer.URL)
	if _, err := reg.Create("f", lifecycleGeometry); err != nil {
		t.Fatal(err)
	}
	// Wait until the boot fetch is in flight at the peer.
	deadline := time.Now().Add(5 * time.Second)
	for fetches.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the refresh loop never fetched")
		}
		time.Sleep(time.Millisecond)
	}
	if err := eng.DeleteFilter("f"); err != nil {
		t.Fatal(err)
	}
	if n := meshtest.RefreshLoopCount(); n != base {
		t.Fatalf("%d refresh loop(s) still running when Delete returned, want %d", n, base)
	}
}

// A name deleted and created again starts with an empty accounting table
// and holds none of its predecessor's pushed digests.
func TestLifecycleRecreatedNameStartsClean(t *testing.T) {
	reg := service.NewRegistry()
	eng := engine.New(reg)
	t.Cleanup(func() { reg.Close() }) //nolint:errcheck // teardown
	create := func() engine.FilterRef {
		t.Helper()
		if _, err := eng.CreateFilter("f", lifecycleGeometry); err != nil {
			t.Fatal(err)
		}
		ref, err := eng.Lookup("f")
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	ref := create()
	p := engine.Principal{ID: "pusher"}
	if _, err := eng.AddBatch(p, ref, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	env, err := eng.DigestExchange(ref, "", false, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DigestPush(p, ref, "sib", strings.NewReader(string(env.Blob)), ""); err != nil {
		t.Fatal(err)
	}
	if sts, _ := eng.PeerStatus(ref); len(sts) != 1 {
		t.Fatalf("pushed digest not held: %+v", sts)
	}
	if err := eng.DeleteFilter("f"); err != nil {
		t.Fatal(err)
	}

	ref = create()
	sts, err := eng.PeerStatus(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 0 {
		t.Errorf("re-created filter holds its predecessor's digests: %+v", sts)
	}
	if st := eng.Stats(ref).RateLimit; st.Clients != 0 || st.AllowedMutations != 0 {
		t.Errorf("re-created filter inherited accounting: %+v", st)
	}
	if rep := eng.Clients(ref); len(rep.Clients) != 0 {
		t.Errorf("re-created filter lists clients: %+v", rep.Clients)
	}
}
