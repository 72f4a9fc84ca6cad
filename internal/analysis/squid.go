package analysis

import "fmt"

// SquidResult pairs the clean control with the polluted attack run of the
// §7 experiment.
type SquidResult struct {
	Clean    *ExperimentResult
	Polluted *ExperimentResult
}

// RunSquid executes both runs of the §7 cache-digest experiment.
func RunSquid(cfg ExperimentConfig) (*SquidResult, error) {
	clean, err := RunExperiment(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("analysis: clean squid run: %w", err)
	}
	polluted, err := RunExperiment(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("analysis: polluted squid run: %w", err)
	}
	return &SquidResult{Clean: clean, Polluted: polluted}, nil
}

// FormatSquid renders the experiment for the CLI.
func FormatSquid(r *SquidResult, probes int) string {
	rows := [][]string{
		{"digest size (bits)", fmt.Sprintf("%d", r.Clean.DigestBits), fmt.Sprintf("%d", r.Polluted.DigestBits), "762"},
		{"digest weight", fmt.Sprintf("%d", r.Clean.DigestWeight), fmt.Sprintf("%d", r.Polluted.DigestWeight), "-"},
		{"digest FPR (W/m)^4", fmt.Sprintf("%.3f", r.Clean.DigestFPR), fmt.Sprintf("%.3f", r.Polluted.DigestFPR), "-"},
		{fmt.Sprintf("false hits / %d probes", probes), fmt.Sprintf("%d", r.Clean.FalseHits), fmt.Sprintf("%d", r.Polluted.FalseHits), "40 vs 79"},
		{"wasted RTT", r.Clean.WastedRTT.String(), r.Polluted.WastedRTT.String(), "≥10ms each"},
		{"forge attempts", fmt.Sprintf("%d", r.Clean.ForgeAttempts), fmt.Sprintf("%d", r.Polluted.ForgeAttempts), "-"},
	}
	return FormatTable([]string{"Metric", "Clean", "Polluted", "Paper"}, rows)
}
