package mesh

import (
	"reflect"
	"testing"
)

func TestParseTopology(t *testing.T) {
	for s, want := range map[string]Topology{
		"": TopologyPairs, "pairs": TopologyPairs, "ring": TopologyRing, "hub": TopologyHub,
	} {
		got, err := ParseTopology(s)
		if err != nil || got != want {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseTopology("mesh"); err == nil {
		t.Error("unknown topology accepted")
	}
}

// The fetch-edge table: who polls whom under each topology, for every
// position a node can hold in the roster.
func TestResolveTargets(t *testing.T) {
	roster := []string{"http://a", "http://b", "http://c", "http://d"}
	cases := []struct {
		name    string
		topo    Topology
		self    string
		want    []string
		wantErr bool
	}{
		// Pairs: everyone but self; with no self, the roster verbatim (the
		// PR 4 "list the others" configuration).
		{"pairs/no-self", TopologyPairs, "", roster, false},
		{"pairs/first", TopologyPairs, "http://a", []string{"http://b", "http://c", "http://d"}, false},
		{"pairs/middle", TopologyPairs, "http://c", []string{"http://a", "http://b", "http://d"}, false},
		// Ring: successor only, wrapping at the end.
		{"ring/first", TopologyRing, "http://a", []string{"http://b"}, false},
		{"ring/last-wraps", TopologyRing, "http://d", []string{"http://a"}, false},
		{"ring/no-self", TopologyRing, "", nil, true},
		{"ring/self-not-in-roster", TopologyRing, "http://zz", nil, true},
		// Hub: the roster's first member fetches every spoke; spokes fetch
		// only the hub.
		{"hub/is-hub", TopologyHub, "http://a", []string{"http://b", "http://c", "http://d"}, false},
		{"hub/spoke", TopologyHub, "http://c", []string{"http://a"}, false},
		{"hub/no-self", TopologyHub, "", nil, true},
		{"hub/unknown", Topology("mesh"), "http://a", nil, true},
	}
	for _, tc := range cases {
		got, err := resolveTargets(roster, tc.topo, tc.self)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: no error, got %v", tc.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: targets %v, want %v", tc.name, got, tc.want)
		}
	}
	// Two-member degenerate rings and hubs still resolve; singletons refuse.
	if got, err := resolveTargets([]string{"http://a", "http://b"}, TopologyRing, "http://b"); err != nil || !reflect.DeepEqual(got, []string{"http://a"}) {
		t.Errorf("two-member ring: %v, %v", got, err)
	}
	if _, err := resolveTargets([]string{"http://a"}, TopologyRing, "http://a"); err == nil {
		t.Error("single-member ring accepted")
	}
	if _, err := resolveTargets([]string{"http://a"}, TopologyHub, "http://a"); err == nil {
		t.Error("single-member hub accepted")
	}
}

// claims builds a claim slice with the given claim pattern; "1" claims.
func claims(pattern string) []PeerClaim {
	out := make([]PeerClaim, len(pattern))
	for i, c := range pattern {
		out[i] = PeerClaim{Peer: string(rune('a' + i)), Claims: c == '1'}
	}
	return out
}

// The quorum arithmetic table, including the scenario the mesh defends
// against: one poisoned sibling claiming everything amid honest deniers.
func TestQuorumVerdict(t *testing.T) {
	cases := []struct {
		name         string
		pattern      string
		quorum       int
		wantClaiming int
		wantPeer     bool
	}{
		{"no-claims", "000", 1, 0, false},
		{"pr4-first-claim", "100", 1, 1, true},
		{"all-claim-q1", "111", 1, 3, true},
		// One poisoned peer saturates its digest: under q=1 it swings the
		// verdict alone; under q=2 it needs an honest accomplice.
		{"poisoned-alone-q1", "100", 1, 1, true},
		{"poisoned-alone-q2", "100", 2, 1, false},
		{"poisoned-corroborated-q2", "110", 2, 2, true},
		{"poisoned-alone-of-4-q2", "1000", 2, 1, false},
		{"exact-quorum", "1100", 2, 2, true},
		{"above-quorum", "1110", 2, 3, true},
		{"quorum-above-mesh", "111", 4, 3, false},
		{"no-siblings", "", 1, 0, false},
		// Quorum below 1 is treated as 1, never "free peer verdicts".
		{"zero-quorum", "100", 0, 1, true},
		{"zero-quorum-no-claims", "000", 0, 0, false},
		{"negative-quorum", "010", -3, 1, true},
	}
	for _, tc := range cases {
		claiming, peer := QuorumVerdict(claims(tc.pattern), tc.quorum)
		if claiming != tc.wantClaiming || peer != tc.wantPeer {
			t.Errorf("%s: QuorumVerdict(%q, %d) = (%d, %v), want (%d, %v)",
				tc.name, tc.pattern, tc.quorum, claiming, peer, tc.wantClaiming, tc.wantPeer)
		}
	}
}
