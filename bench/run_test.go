package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestQuickPlumbing runs every workload end to end in -quick mode against a
// freshly built server: spawn, seed, timed phase, probe, restart where the
// workload has one, and for one workload the traced ladder. It gates no
// metric; it checks that nothing fails and that each mode prints exactly the
// metrics BENCHMARK.json promises.
func TestQuickPlumbing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the server; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "evilbloom")
	build := exec.Command("go", "build", "-o", bin, "evilbloom/cmd/evilbloom")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	def := readBenchmarkDef(t)
	var endToEnd, perLayer []string
	for _, m := range def.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range def.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && w.name != "resp-churn-durable" && w.name != "http-read-small" {
				continue // one traced run per plane is plumbing enough
			}
			name := w.name
			want := endToEnd
			if trace {
				name += "/trace"
				want = perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{w: w.quick(), seed: 5, seconds: 1, trace: trace, quick: true, outDir: filepath.Join(dir, "out"), serverBin: bin}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				got := metricNames(res.Metrics)
				if len(got) != len(want) {
					t.Fatalf("printed %d metrics %v\nBENCHMARK.json promises %d %v", len(got), got, len(want), want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("metric %d is %q, BENCHMARK.json promises %q", i, got[i], want[i])
					}
				}
				for _, m := range def.EndToEnd {
					if v, ok := res.Metrics[m.Name]; ok && (v.Value <= 0 || v.Unit != m.Unit) {
						t.Errorf("%s = %v %s; want a positive value in %s", m.Name, v.Value, v.Unit, m.Unit)
					}
				}
				for _, m := range def.PerLayer {
					if v, ok := res.Metrics[m.Name]; ok && v.Unit != m.Unit {
						t.Errorf("%s is in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
					}
				}
				if trace {
					spans, err := filepath.Glob(filepath.Join(cfg.outDir, w.name+".seed5.trace.json"))
					if err != nil || len(spans) != 1 {
						t.Errorf("span file: %v %v", spans, err)
					}
				}
				// Nothing a run creates outlives it, except the span file.
				left, _ := filepath.Glob(filepath.Join(cfg.outDir, "*data-*"))
				if len(left) > 0 {
					t.Errorf("data directories left behind: %v", left)
				}
			})
		}
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "out")); len(entries) != 2 {
		t.Errorf("scratch directory holds %d entries, want the two span files", len(entries))
	}
}
