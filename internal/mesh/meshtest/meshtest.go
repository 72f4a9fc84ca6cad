// Package meshtest boots N-node evilbloom digest meshes on loopback for
// tests. Each node is the full production stack — a service.Registry
// wrapped by an engine.Engine behind an httpapi server on an httptest
// listener — wired into a digest-exchange mesh exactly the way
// cmd/evilbloom serve would wire it: one mesh configuration holding the
// roster topology and the peer credentials (the node's own entry leading
// its -peer-token list), then the filters whose refresh loops join the
// mesh.
//
// The harness owns teardown: servers close, registries close, and the
// cleanup asserts every peer-refresh goroutine the mesh started has
// exited — a mesh test cannot leak loops into its neighbors.
package meshtest

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"evilbloom/internal/engine"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/mesh"
	"evilbloom/internal/service"
)

// Opts configures StartMesh. The zero value is a usable unauthenticated
// pairs mesh with the §7 experiment geometry.
type Opts struct {
	// Topology picks which roster members each node fetches (default
	// pairs: everyone fetches everyone else).
	Topology mesh.Topology
	// Auth, when set, installs mesh credentials on every node: node i's
	// roster leads with its own "node<i>" entry, mirroring how each real
	// server's -peer-token list leads with its own credential. Digests are
	// then sealed, fetches authenticated, and unauthenticated pushes
	// refused.
	Auth bool
	// RouteQuorum is each node's route verdict threshold (0 keeps the
	// default of 1, the first-claiming-peer rule).
	RouteQuorum int
	// Refresh is the mesh refresh interval. Defaults to an hour: tests
	// drive the exchange explicitly (Node.Refresh) for determinism, the
	// same reason the two-server campaign test does.
	Refresh time.Duration
	// Filter names the same-named filter created on every node (default
	// "cache").
	Filter string
	// FilterCfg overrides the filter geometry (nil → Section7Geometry).
	FilterCfg *service.Config
}

// Node is one mesh member: the full stack plus its mesh identity.
type Node struct {
	// Index is the node's roster position.
	Index int
	// PeerName is the node's mesh principal name ("node<i>"); empty on an
	// unauthenticated mesh.
	PeerName string
	// Token is the node's own "name:secret" credential; empty without Auth.
	Token string
	// URL is the node's base URL, also its roster entry.
	URL string

	Registry *service.Registry
	Engine   *engine.Engine
	Server   *httptest.Server
}

// Mesh is a running N-node digest mesh.
type Mesh struct {
	// Nodes holds the members in roster order.
	Nodes []*Node
	// Filter is the name of the filter every node serves.
	Filter string
}

// Section7Geometry is the experiment filter every mesh test shares unless
// overridden: single shard so an adversary's shadow is exact, k=4 like
// Squid, sized so 151 honest items land near the paper's ≈40% false-hit
// digest — and small enough that pollution saturates it within the §7
// item budget.
func Section7Geometry() service.Config {
	return service.Config{
		Shards:    1,
		ShardBits: 384,
		HashCount: 4,
		Seed:      7,
		RouteKey:  []byte("fedcba9876543210"),
	}
}

// PeerName returns the deterministic mesh principal name of roster
// position i.
func PeerName(i int) string { return fmt.Sprintf("node%d", i) }

// PeerToken returns roster position i's full "name:secret" credential —
// what a test presents to push as that node, or hands to an evil client
// impersonating it.
func PeerToken(i int) string {
	return fmt.Sprintf("%s:secret-%s", PeerName(i), PeerName(i))
}

// StartMesh boots an n-node mesh (n ≥ 2) and registers teardown on t.
// Boot order mirrors cmd/evilbloom serve: stack and listener up, mesh
// configured with the node's own URL as Self (and its credentials first,
// when Auth), then the shared filter created on every node — which starts
// the refresh loops that join the mesh.
func StartMesh(t testing.TB, n int, opts Opts) *Mesh {
	t.Helper()
	if n < 2 {
		t.Fatalf("meshtest: mesh of %d nodes; want ≥ 2", n)
	}
	filter := opts.Filter
	if filter == "" {
		filter = "cache"
	}
	refresh := opts.Refresh
	if refresh == 0 {
		refresh = time.Hour
	}
	cfg := Section7Geometry()
	if opts.FilterCfg != nil {
		cfg = *opts.FilterCfg
	}

	baseline := RefreshLoopCount()
	nodes := make([]*Node, n)
	urls := make([]string, n)
	for i := range nodes {
		reg := service.NewRegistry()
		eng := engine.New(reg)
		ts := httptest.NewServer(httpapi.NewEngineServer(eng))
		nodes[i] = &Node{Index: i, Registry: reg, Engine: eng, Server: ts, URL: ts.URL}
		urls[i] = ts.URL
	}
	// Registered before any node is wired so a mid-boot t.Fatal still
	// tears the partial mesh down.
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Server.Close()
			nd.Registry.Close() //nolint:errcheck // teardown
		}
		waitRefreshLoops(t, baseline)
	})

	for i, nd := range nodes {
		var entries []string
		if opts.Auth {
			for j := 0; j < n; j++ {
				entries = append(entries, PeerToken((i+j)%n))
			}
			nd.PeerName = PeerName(i)
			nd.Token = entries[0]
		}
		err := nd.Engine.ConfigureMesh(mesh.PeerConfig{
			Peers:       urls,
			Topology:    opts.Topology,
			Self:        urls[i],
			RouteQuorum: opts.RouteQuorum,
			Refresh:     refresh,
			Tokens:      entries,
		})
		if err != nil {
			t.Fatalf("meshtest: node %d peers: %v", i, err)
		}
	}
	for i, nd := range nodes {
		if _, err := nd.Registry.Create(filter, cfg); err != nil {
			t.Fatalf("meshtest: node %d filter %q: %v", i, filter, err)
		}
	}
	return &Mesh{Nodes: nodes, Filter: filter}
}

// Refresh forces one node to fetch every configured sibling's digest for
// the named filter now — the deterministic stand-in for the refresh
// interval elapsing.
func (nd *Node) Refresh(t testing.TB, filter string) []mesh.PeerStatus {
	t.Helper()
	ref, err := nd.Engine.Lookup(filter)
	if err != nil {
		t.Fatalf("meshtest: node %d lookup %q: %v", nd.Index, filter, err)
	}
	sts, err := nd.Engine.RefreshPeers(ref)
	if err != nil {
		t.Fatalf("meshtest: node %d refresh %q: %v", nd.Index, filter, err)
	}
	return sts
}

// Status snapshots one node's peer accounting for the named filter
// without driving an exchange.
func (nd *Node) Status(t testing.TB, filter string) []mesh.PeerStatus {
	t.Helper()
	ref, err := nd.Engine.Lookup(filter)
	if err != nil {
		t.Fatalf("meshtest: node %d lookup %q: %v", nd.Index, filter, err)
	}
	sts, err := nd.Engine.PeerStatus(ref)
	if err != nil {
		t.Fatalf("meshtest: node %d status %q: %v", nd.Index, filter, err)
	}
	return sts
}

// AwaitBoot blocks until every node's refresh loop has completed the
// immediate boot exchange against every sibling it watches. A test that
// drives exchanges explicitly should quiesce here first: afterwards the
// next loop-driven exchange is a whole refresh interval away, so the
// test's own Refresh calls never race the loop's.
func (m *Mesh) AwaitBoot(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range m.Nodes {
		for {
			pending := false
			for _, st := range nd.Status(t, m.Filter) {
				if st.Source == "fetched" && st.Fetches+st.NotModified+st.Failures == 0 {
					pending = true
				}
			}
			if !pending {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("meshtest: node %d boot exchanges still pending", nd.Index)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// RefreshAll refreshes the mesh filter on every node.
func (m *Mesh) RefreshAll(t testing.TB) {
	t.Helper()
	for _, nd := range m.Nodes {
		nd.Refresh(t, m.Filter)
	}
}

// RefreshLoopCount counts live peer-refresh goroutines across the whole
// process by stack inspection — the leak observable every mesh teardown
// asserts on.
func RefreshLoopCount() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "(*Peers).refreshLoop")
}

// WaitNoRefreshLoops blocks until no peer-refresh goroutine remains,
// failing t if any survives the deadline.
func WaitNoRefreshLoops(t testing.TB) {
	t.Helper()
	waitRefreshLoops(t, 0)
}

// waitRefreshLoops waits for the refresh-goroutine count to drop to the
// given baseline (loops from unrelated concurrent tests stay out of the
// assertion).
func waitRefreshLoops(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for RefreshLoopCount() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("meshtest: %d peer-refresh goroutine(s) still running after teardown (baseline %d)",
				RefreshLoopCount(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
