package meshtest_test

import (
	"fmt"
	"testing"

	"evilbloom/internal/mesh"
	"evilbloom/internal/mesh/meshtest"
	"evilbloom/internal/service"
)

// statusFor finds the fetched-peer row for the given base URL.
func statusFor(t *testing.T, sts []mesh.PeerStatus, peer string) mesh.PeerStatus {
	t.Helper()
	for _, st := range sts {
		if st.Peer == peer && st.Source == "fetched" {
			return st
		}
	}
	t.Fatalf("no fetched row for peer %s in %+v", peer, sts)
	return mesh.PeerStatus{}
}

// fetchTargets lists the base URLs a node's refresh loop watches.
func fetchTargets(sts []mesh.PeerStatus) []string {
	var out []string
	for _, st := range sts {
		if st.Source == "fetched" {
			out = append(out, st.Peer)
		}
	}
	return out
}

// A peer revoked while its digest fetch is in flight must never have that
// digest imported: whichever way the race lands — refused before the
// fetch, refused at import, or imported then evicted — the victim ends
// the round holding nothing sealed by the revoked principal. Run under
// -race, over several fresh meshes so the interleavings vary.
func TestRevokedMidRefreshNeverImports(t *testing.T) {
	for round := 0; round < 8; round++ {
		t.Run(fmt.Sprintf("round-%d", round), func(t *testing.T) {
			m := meshtest.StartMesh(t, 2, meshtest.Opts{Auth: true})
			victim, sibling := m.Nodes[0], m.Nodes[1]

			f, err := sibling.Registry.Get(m.Filter)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				f.Store().Add([]byte{byte(i), 'r', byte(round)})
			}

			ref, err := victim.Engine.Lookup(m.Filter)
			if err != nil {
				t.Fatal(err)
			}

			// Race the fetch against the revocation.
			start := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				<-start
				_, err := victim.Engine.RefreshPeers(ref)
				done <- err
			}()
			close(start)
			if _, found := victim.Engine.RevokePeerToken(meshtest.PeerName(1)); !found {
				t.Fatal("revocation did not find node1's credential")
			}
			if err := <-done; err != nil {
				t.Fatalf("refresh: %v", err)
			}

			// The revocation has returned: from here on the victim must hold
			// no digest from the revoked peer, regardless of how far the
			// concurrent fetch had gotten.
			sts := victim.Status(t, m.Filter)
			st := statusFor(t, sts, sibling.URL)
			if st.HasDigest {
				t.Fatalf("victim holds a digest from the revoked peer: %+v", st)
			}
			for _, row := range sts {
				if row.HasDigest && row.SealedBy == meshtest.PeerName(1) {
					t.Fatalf("digest sealed by the revoked principal survives: %+v", row)
				}
			}
		})
	}
}

// The acceptance bar for the delta path: on a sparse update the refresh
// ships a delta frame that is measurably smaller than the full envelope —
// and an unchanged filter still costs a 304, not a re-download.
func TestDeltaRefreshShipsFewerBytes(t *testing.T) {
	// A single wide shard (4096 bits → 64 words) makes the full envelope
	// ~612 bytes while one added item touches at most k=4 words, so its
	// delta frame stays near 116 bytes.
	cfg := service.Config{
		Shards:    1,
		ShardBits: 4096,
		HashCount: 4,
		Seed:      7,
		RouteKey:  []byte("fedcba9876543210"),
	}
	m := meshtest.StartMesh(t, 2, meshtest.Opts{FilterCfg: &cfg})
	m.AwaitBoot(t)
	src, dst := m.Nodes[0], m.Nodes[1]

	// The quiesced boot exchange shipped exactly one full envelope, whose
	// size depends only on geometry — the denominator for every saving.
	st := statusFor(t, dst.Status(t, m.Filter), src.URL)
	if !st.HasDigest || st.Fetches != 1 || st.DeltaFetches != 0 {
		t.Fatalf("boot exchange: %+v, want one full fetch", st)
	}
	fullBytes := st.BytesFetched
	if fullBytes == 0 {
		t.Fatal("boot exchange shipped zero bytes")
	}

	f, err := src.Registry.Get(m.Filter)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		f.Store().Add([]byte{byte(i), 'd'})
	}

	// A dense update rides the delta path too (the fetcher ACKed the boot
	// envelope), but with most words touched it saves little — the point
	// of the frame is the sparse case below.
	st = statusFor(t, dst.Refresh(t, m.Filter), src.URL)
	if !st.HasDigest || st.DeltaFetches != 1 {
		t.Fatalf("dense refresh: %+v, want a delta fetch", st)
	}
	prevBytes := st.BytesFetched

	// Sparse update: one item touches at most k words. The exchange must
	// ride the delta frame and cost a fraction of the envelope.
	f.Store().Add([]byte("one-more"))
	st = statusFor(t, dst.Refresh(t, m.Filter), src.URL)
	if st.DeltaFetches != 2 {
		t.Fatalf("sparse refresh: %+v, want a second delta fetch", st)
	}
	deltaBytes := st.BytesFetched - prevBytes
	if deltaBytes == 0 {
		t.Fatal("sparse delta refresh shipped zero bytes")
	}
	if deltaBytes*3 >= fullBytes {
		t.Fatalf("sparse delta shipped %d bytes against a %d-byte full envelope; want < 1/3",
			deltaBytes, fullBytes)
	}
	if st.Generation == 0 || st.DigestWeight == 0 {
		t.Fatalf("delta-applied digest looks empty: %+v", st)
	}
	prevBytes = st.BytesFetched

	// Unchanged filter: the ETag short-circuit must survive the delta
	// path — a 304 ships no frame bytes at all.
	st = statusFor(t, dst.Refresh(t, m.Filter), src.URL)
	if st.NotModified != 1 || st.BytesFetched != prevBytes {
		t.Fatalf("unchanged refresh: %+v, want one 304 and no new bytes", st)
	}
}

// Topologies shape who fetches whom: a ring node watches only its
// successor; a hub fans out to every spoke while spokes watch the hub.
func TestMeshTopologyShapes(t *testing.T) {
	seed := func(m *meshtest.Mesh) {
		for _, nd := range m.Nodes {
			f, err := nd.Registry.Get(m.Filter)
			if err != nil {
				t.Fatal(err)
			}
			f.Store().Add([]byte(nd.URL))
		}
	}
	watches := func(nd *meshtest.Node) []string {
		return fetchTargets(nd.Status(t, "cache"))
	}

	t.Run("ring", func(t *testing.T) {
		m := meshtest.StartMesh(t, 3, meshtest.Opts{Topology: mesh.TopologyRing})
		seed(m)
		m.RefreshAll(t)
		for i, nd := range m.Nodes {
			got := watches(nd)
			want := m.Nodes[(i+1)%3].URL
			if len(got) != 1 || got[0] != want {
				t.Errorf("ring node %d watches %v, want [%s]", i, got, want)
			}
			st := statusFor(t, nd.Refresh(t, m.Filter), want)
			if !st.HasDigest {
				t.Errorf("ring node %d holds no successor digest: %+v", i, st)
			}
		}
	})

	t.Run("hub", func(t *testing.T) {
		m := meshtest.StartMesh(t, 3, meshtest.Opts{Topology: mesh.TopologyHub})
		seed(m)
		m.RefreshAll(t)
		if got := watches(m.Nodes[0]); len(got) != 2 {
			t.Errorf("hub watches %v, want both spokes", got)
		}
		for i := 1; i < 3; i++ {
			got := watches(m.Nodes[i])
			if len(got) != 1 || got[0] != m.Nodes[0].URL {
				t.Errorf("spoke %d watches %v, want [%s]", i, got, m.Nodes[0].URL)
			}
		}
	})
}
