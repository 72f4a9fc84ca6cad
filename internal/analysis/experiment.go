package analysis

import (
	"fmt"
	"time"

	"evilbloom/internal/attack"
	"evilbloom/internal/cachedigest"
	"evilbloom/internal/urlgen"
)

// ExperimentConfig mirrors the paper's §7 testbed, run in process over
// cachedigest's Squid model: two sibling proxies, a
// clean cache of 51 URLs, 100 attacker-supplied URLs, 100 probe queries
// against the second proxy, and a 10 ms RTT between the proxies.
type ExperimentConfig struct {
	// CleanURLs is the number of honest URLs pre-cached on the first proxy
	// (51 in the paper: the warm-up state of a "totally clean" cache).
	CleanURLs int
	// ExtraURLs is the number of additional URLs the client asks the first
	// proxy to fetch — crafted by the adversary in the attack run, honest in
	// the control run (100 in the paper).
	ExtraURLs int
	// Probes is the number of uncached URLs queried through the second
	// proxy after the digest exchange (100 in the paper).
	Probes int
	// RTT is the simulated proxy-to-proxy round trip (10 ms in the paper).
	RTT time.Duration
	// Seed drives every URL stream.
	Seed int64
	// PerItemBudget bounds the per-URL forgery search (0 = unbounded).
	PerItemBudget uint64
}

// DefaultExperimentConfig returns the paper's parameters.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		CleanURLs: 51,
		ExtraURLs: 100,
		Probes:    100,
		RTT:       10 * time.Millisecond,
		Seed:      1,
	}
}

// ExperimentResult reports one run (clean or polluted).
type ExperimentResult struct {
	// Polluted records whether the extra URLs were adversarial.
	Polluted bool
	// DigestBits is the exchanged digest size (762 in the paper).
	DigestBits uint64
	// DigestWeight is its Hamming weight after the run.
	DigestWeight uint64
	// DigestFPR is the analytic (W/m)^4 of the exchanged digest.
	DigestFPR float64
	// FalseHits counts probe queries that hit the digest and wasted a round
	// trip on the sibling (the paper's "false positive hits": 79% polluted
	// vs 40% clean out of 100 queries).
	FalseHits int
	// WastedRTT is the network time burned on false hits.
	WastedRTT time.Duration
	// ForgeAttempts counts adversary candidates tried (0 for clean runs).
	ForgeAttempts uint64
}

// RunExperiment executes the §7 scenario once.
func RunExperiment(cfg ExperimentConfig, polluted bool) (*ExperimentResult, error) {
	if cfg.CleanURLs < 0 || cfg.ExtraURLs < 0 || cfg.Probes <= 0 {
		return nil, fmt.Errorf("analysis: invalid experiment config %+v", cfg)
	}
	net := &cachedigest.Network{RTT: cfg.RTT}
	origin := &cachedigest.Origin{}
	p1 := cachedigest.NewProxy("proxy1", net, origin)
	p2 := cachedigest.NewProxy("proxy2", net, origin)
	cachedigest.Peer(p1, p2)

	// Warm proxy1 with the clean cache.
	cleanGen := urlgen.New(cfg.Seed)
	cleanURLs := cleanGen.URLs(cfg.CleanURLs)
	for _, u := range cleanURLs {
		p1.Fetch(u)
	}

	var forgeAttempts uint64
	if polluted {
		// The adversary models the digest the proxy will build: she knows
		// the implementation (public), the digest geometry (5n+7 over the
		// final cache size) and the cache contents (she can enumerate or
		// observe them; the paper grants state knowledge to the §4.2/§4.1
		// adversaries).
		capacity := uint64(cfg.CleanURLs + cfg.ExtraURLs)
		model, err := cachedigest.NewDigest(capacity)
		if err != nil {
			return nil, err
		}
		for _, u := range cleanURLs {
			model.Add("GET", u)
		}
		forger := attack.NewForger(attack.NewBloomView(model.Bloom()),
			keyedURLGenerator(cfg.Seed+7))
		for i := 0; i < cfg.ExtraURLs; i++ {
			item, _, err := forger.ForgePolluting(cfg.PerItemBudget)
			if err != nil {
				return nil, fmt.Errorf("analysis: forging URL %d: %w", i, err)
			}
			url := urlFromKey(item)
			model.Add("GET", url)
			p1.Fetch(url) // the malicious client makes proxy1 cache it
		}
		forgeAttempts = forger.Attempts
	} else {
		honest := urlgen.New(cfg.Seed + 7)
		for i := 0; i < cfg.ExtraURLs; i++ {
			p1.Fetch(honest.URL())
		}
	}

	if err := cachedigest.ExchangeDigests(p1, p2); err != nil {
		return nil, err
	}
	digest := p2.SiblingDigest(p1)

	// Probe proxy2 with URLs cached nowhere: every sibling probe is a
	// digest false positive.
	probes := urlgen.New(cfg.Seed + 1000)
	for i := 0; i < cfg.Probes; i++ {
		p2.Fetch(probes.URL())
	}
	wasted := time.Duration(p2.Stats.FalseSiblingHits) * cfg.RTT

	return &ExperimentResult{
		Polluted:      polluted,
		DigestBits:    digest.M(),
		DigestWeight:  digest.Weight(),
		DigestFPR:     digest.EstimatedFPR(),
		FalseHits:     p2.Stats.FalseSiblingHits,
		WastedRTT:     wasted,
		ForgeAttempts: forgeAttempts,
	}, nil
}

// keyedURLGenerator yields store keys ("GET <fake-url>") so the forger
// searches directly in key space.
func keyedURLGenerator(seed int64) attack.Generator {
	gen := urlgen.New(seed)
	return attack.GeneratorFunc(func() []byte {
		return cachedigest.Key("GET", gen.URL())
	})
}

// urlFromKey strips the method prefix a keyedURLGenerator added.
func urlFromKey(key []byte) string {
	s := string(key)
	const prefix = "GET "
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):]
	}
	return s
}
