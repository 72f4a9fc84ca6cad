// Command bench is the repository's benchmark: it builds ./cmd/evilbloom,
// spawns `evilbloom serve` as a child process with every key fixed, drives
// it from this one process in a closed loop, checks every reply, and prints
// the run's metrics as one JSON object on the last line of standard output.
// See README.md in this directory.
//
//	go run ./bench -workload resp-read-small -seed 1 -seconds 24
//	go run ./bench -workload resp-read-small -seed 1 -seconds 24 -trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// buildServer compiles ./cmd/evilbloom from the tree the benchmark runs in.
func buildServer(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "evilbloom"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/evilbloom")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building ./cmd/evilbloom (run the benchmark from the repository root): %w", err)
	}
	return bin, nil
}

func main() {
	var cfg runConfig
	name := flag.String("workload", "", "workload to run: resp-read-small, http-read-small, resp-read-large or resp-churn-durable")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the key and request streams")
	flag.IntVar(&cfg.seconds, "seconds", 24, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 also runs the in-process traced ladder and prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.quick, "quick", false, "plumbing check: a fraction of the keys, no gates on the estimators; the numbers mean nothing")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "scratch directory for the built server, data directories and span files")
	flag.StringVar(&cfg.serverBin, "server-bin", "", "use this evilbloom binary instead of building ./cmd/evilbloom")
	flag.Parse()
	if err := mainErr(cfg, *name, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(cfg runConfig, name string, trace int) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	var err error
	if cfg.w, err = findWorkload(name); err != nil {
		return err
	}
	if cfg.quick {
		cfg.w = cfg.w.quick()
	}
	// The generator is sized for the 2-core box: one connection per core.
	runtime.GOMAXPROCS(conns)
	if cfg.serverBin == "" {
		if cfg.serverBin, err = buildServer(cfg.outDir); err != nil {
			return err
		}
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}
