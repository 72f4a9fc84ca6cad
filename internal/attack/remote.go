package attack

import (
	"errors"
	"fmt"
	"time"

	"evilbloom/internal/bitset"
	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

// Target is the wire surface every live campaign drives: one filter on a
// running `evilbloom serve`, reached the way any client reaches it. Each
// campaign of this package is written once against it; the transports are
// thin adapters — *RemoteClient over HTTP/JSON, resp.Target over the binary
// RESP plane — so the same seeded campaign gives the same result on both.
//
// A mutation the server's rate limit refuses fails with *ThrottledError
// whichever plane carried it (an HTTP 429 and a RESP -BUSY alike), and lands
// nothing. Remove reports whether the server accepted the removal: false
// when its filter believed the item absent, the refusal a hardened server
// answers crafted removals with.
type Target interface {
	Info() (*RemoteInfo, error)
	Stats() (*RemoteStats, error)
	AddBatch(items [][]byte) error
	Test(item []byte) (bool, error)
	Remove(item []byte) (bool, error)
}

// ThrottledError is a mutation refused by the server's per-client rate
// limit. It is informative, not fatal, for a throttled adversary: nothing
// landed, and RetryAfter is the server's own estimate of when her budget
// refills.
type ThrottledError struct {
	RetryAfter time.Duration
}

func (e *ThrottledError) Error() string {
	return fmt.Sprintf("attack: mutation throttled; retry after %v", e.RetryAfter)
}

// RemoteInfo is a served filter's public self-description: the threat
// model's "the implementation of the Bloom filter is public and known". In
// naive mode Seed is published; in hardened mode it is absent. Fields a
// plane does not report (BF.INFO carries no algorithm, counter width,
// overflow rule or capability list) stay zero.
type RemoteInfo struct {
	Mode         string   `json:"mode"`
	Variant      string   `json:"variant"`
	Shards       int      `json:"shards"`
	K            int      `json:"k"`
	ShardBits    uint64   `json:"shard_bits"`
	Algorithm    string   `json:"algorithm"`
	Seed         *uint64  `json:"seed"`
	CounterWidth int      `json:"counter_width"`
	Overflow     string   `json:"overflow"`
	Capabilities []string `json:"capabilities"`
}

// RemoteStats is the slice of a filter's statistics the campaigns read
// back: the server's own ground-truth estimate of the damage.
type RemoteStats struct {
	Count  uint64  `json:"count"`
	Weight uint64  `json:"weight"`
	Fill   float64 `json:"fill"`
	FPR    float64 `json:"estimated_fpr"`
}

// PublicFamily fetches t's published parameters and rebuilds the index
// family the paper's threat model grants. It succeeds only against a
// naive-mode filter, whose index derivation is fully public; against a
// hardened one it fails — which is the point. An adversary who guesses
// anyway builds a family by hand.
func PublicFamily(t Target) (*hashes.DoubleHashing, *RemoteInfo, error) {
	info, err := t.Info()
	if err != nil {
		return nil, nil, err
	}
	if info.Seed == nil {
		return nil, nil, fmt.Errorf("attack: server mode %q publishes no seed; indexes are not predictable", info.Mode)
	}
	fam, err := hashes.NewDoubleHashing(info.K, info.ShardBits, *info.Seed)
	if err != nil {
		return nil, nil, err
	}
	return fam, info, nil
}

// RemoteView adapts a live filter to the adversary's View, turning the
// paper's in-process pollution attacks into client-vs-server scenarios.
//
// The adversary cannot read the server's bits, so the view is a shadow
// model: she assumes the published (naive-mode) index family, computes every
// candidate's indexes locally, and records the positions of her insertions
// in a private bit vector. The shadow holds exactly the insertions the
// server acknowledged. Items of the batch being built are visible to the
// forger too (they count as inserted until the server answers), and a batch
// the server refuses leaves no trace. Against a naive server the shadow is
// therefore exact — every shard shares the public family, so an item fresh
// in the shadow sets k fresh bits in whichever shard it lands — and
// condition (6) drives the compound FPR like Fig 3. Against a hardened
// server the same shadow is fiction: the keyed family scatters her
// carefully chosen items uniformly, and the campaign degrades into random
// insertions (the §8.2 countermeasure doing its job).
//
// RemoteView implements View, Inserter and Weigher, so it plugs straight
// into ChosenInsertion; Weigher reports the shadow's view of the damage,
// while Target.Stats reads the server's ground truth for comparison.
type RemoteView struct {
	target Target
	fam    hashes.IndexFamily
	batch  int
	shadow *bitset.BitSet // positions of acknowledged insertions
	staged *bitset.BitSet // positions the batch being built adds to shadow
	fresh  []uint64       // staged's set positions
	items  [][]byte       // the batch being built
	idx    []uint64
	count  uint64
	err    error

	// Accepted and Throttled count items the server acknowledged and items
	// it refused for rate limiting.
	Accepted, Throttled int
	// FirstThrottle is the 1-based index, among the items sent, of the first
	// refused one (0 = never throttled).
	FirstThrottle int
	// LastRetryAfter is the latest refusal's Retry-After.
	LastRetryAfter time.Duration
}

var (
	_ View     = (*RemoteView)(nil)
	_ Inserter = (*RemoteView)(nil)
	_ Weigher  = (*RemoteView)(nil)
)

// NewRemoteView builds the adversary's shadow view of target, deriving
// indexes from fam and shipping insertions batch at a time (batch ≤ 1 sends
// each item on its own).
func NewRemoteView(target Target, fam hashes.IndexFamily, batch int) *RemoteView {
	return &RemoteView{
		target: target,
		fam:    fam,
		batch:  max(batch, 1),
		shadow: bitset.New(fam.M()),
		staged: bitset.New(fam.M()),
	}
}

// NewRemoteViewFromInfo builds the shadow view over the family PublicFamily
// reconstructs from target's published parameters.
func NewRemoteViewFromInfo(target Target, batch int) (*RemoteView, error) {
	fam, _, err := PublicFamily(target)
	if err != nil {
		return nil, err
	}
	return NewRemoteView(target, fam, batch), nil
}

// Indexes implements View using the assumed-public family.
func (v *RemoteView) Indexes(dst []uint64, item []byte) []uint64 {
	return v.fam.Indexes(dst, item)
}

// OccupiedAt implements View against the shadow plus the batch being built.
func (v *RemoteView) OccupiedAt(_ int, idx uint64) bool {
	return v.shadow.Test(idx) || v.staged.Test(idx)
}

// Partitioned implements View.
func (v *RemoteView) Partitioned() bool { return false }

// K implements View.
func (v *RemoteView) K() int { return v.fam.K() }

// M implements View.
func (v *RemoteView) M() uint64 { return v.fam.M() }

// Add implements Inserter: the item joins the batch being built, which
// ships once it is full. Transport errors are latched in Err, since the
// Inserter interface has nowhere to report them; throttling is counted.
func (v *RemoteView) Add(item []byte) {
	if v.err != nil {
		return
	}
	v.idx = v.fam.Indexes(v.idx[:0], item)
	for _, i := range v.idx {
		if !v.shadow.Test(i) && v.staged.Set(i) {
			v.fresh = append(v.fresh, i)
		}
	}
	v.items = append(v.items, item)
	if len(v.items) >= v.batch {
		v.Flush() //nolint:errcheck // latched in Err
	}
}

// Flush ships the batch being built and folds the server's answer into the
// shadow: acknowledged items enter it, refused ones vanish. It returns the
// latched transport error, if any.
func (v *RemoteView) Flush() error {
	if v.err != nil || len(v.items) == 0 {
		return v.err
	}
	var throttled *ThrottledError
	switch err := v.target.AddBatch(v.items); {
	case err == nil:
		for _, i := range v.fresh {
			v.shadow.Set(i)
		}
		v.count += uint64(len(v.items))
		v.Accepted += len(v.items)
	case errors.As(err, &throttled):
		if v.FirstThrottle == 0 {
			v.FirstThrottle = v.Accepted + v.Throttled + 1
		}
		v.Throttled += len(v.items)
		v.LastRetryAfter = throttled.RetryAfter
	default:
		v.err = err
	}
	for _, i := range v.fresh {
		v.staged.Clear(i)
	}
	v.fresh, v.items = v.fresh[:0], v.items[:0]
	return v.err
}

// Err returns the first transport error hit by Add or Flush, if any.
func (v *RemoteView) Err() error { return v.err }

// Weight implements Weigher over the shadow model.
func (v *RemoteView) Weight() uint64 { return v.shadow.Weight() + uint64(len(v.fresh)) }

// Count implements Weigher.
func (v *RemoteView) Count() uint64 { return v.count + uint64(len(v.items)) }

// EstimatedFPR implements Weigher: (W/m)^k over the shadow — what the
// adversary believes she has achieved. The server's stats are the ground
// truth that confirms (naive) or refutes (hardened) the belief.
func (v *RemoteView) EstimatedFPR() float64 {
	return core.FPForgeryProbability(v.fam.M(), v.fam.K(), v.Weight())
}

// RemotePollution runs the chosen-insertion pollution campaign (the Fig 3
// scenario, in its greedy §7 form so a small filter can be driven to full
// saturation) against a live naive filter, counting throttled insertions
// instead of assuming every one lands. Pointed at an unthrottled server it
// reproduces the familiar saturation; pointed at the same geometry behind
// `-rate-mutations` it measures exactly what the defence buys: the attacker
// spends the same request budget, most of it bounces, and the end-state FPR
// is pinned near the honest level. The shadow holds only acknowledged
// insertions, so her view stays exact even mid-throttle.
type RemotePollution struct {
	// Target is the filter under attack.
	Target Target
	// Traffic supplies the forgery candidate stream.
	Traffic Generator
	// Requests is the item budget: the campaign submits at most this many
	// insertions (accepted or throttled alike).
	Requests int
	// Batch is the number of items per AddBatch (0 = one item a request).
	Batch int
	// PerItemBudget bounds the per-item forgery search (0 = the greedy
	// default of 20000 candidates).
	PerItemBudget uint64
}

// PollutionReport is the outcome of one campaign.
type PollutionReport struct {
	// Requests counts items submitted (≤ the budget: an unthrottled campaign
	// stops early once its shadow saturates — there is nothing left to
	// pollute). Accepted, Throttled, FirstThrottle and LastRetryAfter are
	// the view's counters of the same name.
	Requests, Accepted, Throttled, FirstThrottle int
	LastRetryAfter                               time.Duration
	// SaturatedAt is the item count at which the shadow filter saturated
	// (0 = never) — the time-to-saturation the rate limit stretches.
	SaturatedAt int
	// ForgeAttempts counts forgery candidates examined.
	ForgeAttempts uint64
	// ShadowWeight is the adversary's belief; ServerWeight, ServerFPR and
	// ServerCount are the server's own post-campaign ground truth.
	ShadowWeight uint64
	ServerWeight uint64
	ServerFPR    float64
	ServerCount  uint64
	// Points is the shadow trajectory, one point per forged item; under
	// throttling it flattens the moment the burst is spent.
	Points []PollutionPoint
}

// Run executes the campaign. The target must be naive-mode (the shadow is
// built from its published parameters) and freshly created — the campaign
// owns its whole history.
func (c *RemotePollution) Run() (*PollutionReport, error) {
	if c.Requests <= 0 {
		return nil, fmt.Errorf("attack: request budget %d must be positive", c.Requests)
	}
	view, err := NewRemoteViewFromInfo(c.Target, c.Batch)
	if err != nil {
		return nil, err
	}
	adv := NewChosenInsertion(view, view, view, c.Traffic)
	points, err := adv.PolluteGreedy(c.Requests, c.PerItemBudget)
	if err != nil {
		return nil, err
	}
	if err := view.Flush(); err != nil {
		return nil, fmt.Errorf("attack: transport during campaign: %w", err)
	}
	stats, err := c.Target.Stats()
	if err != nil {
		return nil, err
	}
	rep := &PollutionReport{
		Requests:       view.Accepted + view.Throttled,
		Accepted:       view.Accepted,
		Throttled:      view.Throttled,
		FirstThrottle:  view.FirstThrottle,
		LastRetryAfter: view.LastRetryAfter,
		ForgeAttempts:  adv.Forger().Attempts,
		ShadowWeight:   view.Weight(),
		ServerWeight:   stats.Weight,
		ServerFPR:      stats.FPR,
		ServerCount:    stats.Count,
		Points:         points,
	}
	if view.Weight() >= view.M() {
		rep.SaturatedAt = rep.Requests
	}
	return rep, nil
}
