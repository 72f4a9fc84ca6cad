// Command compare is the benchmark's regression gate: it reads two sets of
// run outputs — directories of <workload>.seed<n>.json files, each holding
// the JSON object a run printed — and judges, per workload and end-to-end
// metric, whether set B is worse than set A by more than the bound
// BENCHMARK.json fixes.
//
//	go run ./bench/compare bench/baseline/set1 bench/baseline/set2
//
// A row is "regression" when B's median is worse than A's by more than the
// bound, "unresolved" when either set's quartile spread is wider than the
// bound (unless every run of B beats every run of A), and "ok" otherwise.
// The exit status is 1 unless every row is ok and no operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"evilbloom/bench/stats"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type runOutput struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runSet is one directory of run outputs, grouped by workload.
type runSet struct {
	values    map[string]map[string][]float64 // workload → metric → one value per run
	attempted map[string]uint64
	failed    map[string]uint64
	incorrect int
}

func loadSet(dir string) (*runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.seed*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no <workload>.seed<n>.json files", dir)
	}
	set := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]uint64{}, failed: map[string]uint64{}}
	for _, path := range paths {
		workload, _, _ := strings.Cut(filepath.Base(path), ".seed")
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		// The result is the last line of what the run printed.
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var out runOutput
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !out.Correct {
			set.incorrect++
		}
		set.attempted[workload] += out.Attempted
		set.failed[workload] += out.Failed
		if set.values[workload] == nil {
			set.values[workload] = map[string][]float64{}
		}
		for name, m := range out.Metrics {
			set.values[workload][name] = append(set.values[workload][name], m.Value)
		}
	}
	return set, nil
}

// worseBy returns how much worse b is than a, as a share of a: positive is
// worse, whichever direction the metric improves in.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := stats.Sorted(a), stats.Sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func verdict(a, b []float64, spec metricSpec) string {
	_, ma, _ := stats.Quartiles(a)
	_, mb, _ := stats.Quartiles(b)
	if (stats.Spread(a) > spec.Bound || stats.Spread(b) > spec.Bound) && !allBetter(a, b, spec.Better) {
		return "unresolved"
	}
	if worseBy(ma, mb, spec.Better) > spec.Bound {
		return "regression"
	}
	return "ok"
}

func main() {
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition to take metrics, directions and bounds from")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] A/ B/\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	bad, err := compare(*benchmark, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

func compare(benchmarkPath, dirA, dirB string) (bad bool, err error) {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var def benchmarkFile
	if err := json.Unmarshal(data, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	fmt.Printf("%-20s %-24s %5s  %34s  %34s  %8s %7s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B worse", "bound", "verdict")
	for _, w := range def.Workloads {
		for _, spec := range def.EndToEnd {
			va, vb := a.values[w.Name][spec.Name], b.values[w.Name][spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-20s %-24s %5s  missing on one side (A has %d runs, B has %d)\n", w.Name, spec.Name, spec.Unit, len(va), len(vb))
				bad = true
				continue
			}
			a1, a2, a3 := stats.Quartiles(va)
			b1, b2, b3 := stats.Quartiles(vb)
			v := verdict(va, vb, spec)
			if v != "ok" {
				bad = true
			}
			fmt.Printf("%-20s %-24s %5s  %34s  %34s  %+7.2f%% %6.0f%%  %s\n", w.Name, spec.Name, spec.Unit,
				fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", a2, a1, a3, len(va)),
				fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", b2, b1, b3, len(vb)),
				100*worseBy(a2, b2, spec.Better), 100*spec.Bound, v)
		}
	}
	names := make([]string, 0, len(a.attempted))
	for name := range a.attempted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-20s failed/attempted  A %d/%d  B %d/%d\n", name, a.failed[name], a.attempted[name], b.failed[name], b.attempted[name])
		if a.failed[name] > 0 || b.failed[name] > 0 {
			bad = true
		}
	}
	if a.incorrect+b.incorrect > 0 {
		fmt.Printf("%d run(s) reported correct=false\n", a.incorrect+b.incorrect)
		bad = true
	}
	return bad, nil
}
