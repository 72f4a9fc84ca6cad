package mesh

import "fmt"

// Mesh topology and quorum: who fetches whose digest, and how many sibling
// claims it takes to route an item away from origin.
//
// PR 4's mesh was implicit full-pairs: every node lists every other node and
// fetches all of them. With N≥3 that stops being the only sensible shape, so
// the roster (the -peer list) now names the whole mesh — including this
// node, identified by -self — and a topology decides which members this
// node actually polls:
//
//	pairs               ring                    hub
//	A ←──→ B            A ──→ B                 A(hub) ←── B
//	 ↖     ↑            ↑     │                 ↑ │ ↘
//	   ↘   ↓            │     ↓                 │ ↓   ↘
//	     ↘ C            C ←── D                 C       D
//
//	every member        each member fetches     spokes fetch only the
//	fetches every       only its successor;     hub; the hub fetches
//	other member        digests still reach     every spoke and re-
//	                    everyone in ≤N−1        exports what it learned
//	                    refresh ticks           through its own digest
//
// Topology shapes only the *fetch* edges; pushes (POST .../digest?peer=)
// and quorum evaluation work identically under all three.
type Topology string

const (
	// TopologyPairs is the PR 4 default: fetch every roster member but self.
	TopologyPairs Topology = "pairs"
	// TopologyRing fetches only this node's successor in roster order.
	TopologyRing Topology = "ring"
	// TopologyHub fetches only the roster's first member (the hub) — unless
	// this node IS the hub, which fetches every spoke.
	TopologyHub Topology = "hub"
)

// ParseTopology maps the -topology flag to a Topology; empty means pairs.
func ParseTopology(s string) (Topology, error) {
	switch Topology(s) {
	case "", TopologyPairs:
		return TopologyPairs, nil
	case TopologyRing:
		return TopologyRing, nil
	case TopologyHub:
		return TopologyHub, nil
	default:
		return "", fmt.Errorf("mesh: unknown topology %q (want pairs, ring or hub)", s)
	}
}

// resolveTargets reduces a mesh roster to the base URLs this node fetches
// under topo. self is this node's own roster entry ("" is allowed only for
// pairs, where the roster is then taken as "everyone else" verbatim — the
// PR 4 configuration).
func resolveTargets(roster []string, topo Topology, self string) ([]string, error) {
	selfAt := -1
	for i, u := range roster {
		if u == self && self != "" {
			selfAt = i
			break
		}
	}
	switch topo {
	case TopologyPairs:
		out := make([]string, 0, len(roster))
		for i, u := range roster {
			if i != selfAt {
				out = append(out, u)
			}
		}
		return out, nil
	case TopologyRing:
		if selfAt < 0 {
			return nil, fmt.Errorf("mesh: ring topology needs -self to name this node's own roster entry")
		}
		if len(roster) < 2 {
			return nil, fmt.Errorf("mesh: ring topology needs at least 2 roster members, have %d", len(roster))
		}
		return []string{roster[(selfAt+1)%len(roster)]}, nil
	case TopologyHub:
		if self == "" {
			return nil, fmt.Errorf("mesh: hub topology needs -self (the hub is the roster's first member)")
		}
		if len(roster) < 2 {
			return nil, fmt.Errorf("mesh: hub topology needs at least 2 roster members, have %d", len(roster))
		}
		if selfAt == 0 {
			return append([]string(nil), roster[1:]...), nil
		}
		return []string{roster[0]}, nil
	default:
		return nil, fmt.Errorf("mesh: unknown topology %q", topo)
	}
}

// QuorumVerdict counts how many sibling claims an item drew and whether
// that clears the routing quorum. With q=1 this is PR 4's first-claiming-
// peer rule; with q≥2 a single poisoned digest cannot swing the verdict —
// the §7 committee vote. A quorum of 0 or less is treated as 1.
func QuorumVerdict(claims []PeerClaim, quorum int) (claiming int, peer bool) {
	for _, c := range claims {
		if c.Claims {
			claiming++
		}
	}
	if quorum < 1 {
		quorum = 1
	}
	return claiming, claiming >= quorum
}
