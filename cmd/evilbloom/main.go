// Command evilbloom regenerates every experiment of "The Power of Evil
// Choices in Bloom Filters" (Gerbet, Kumar, Lauradoux — DSN 2015):
//
//	evilbloom fig3      pollution curves (m=3200, k=4): f, f_adv, partial
//	evilbloom fig5      cost of forging polluting URLs (pyBloom, 4 exponents)
//	evilbloom fig6      cost of forging one ghost URL vs filter occupation
//	evilbloom fig8      Dablooms compound F vs #polluted stages
//	evilbloom fig9      digest bits needed k·⌈log₂m⌉ and single-call domains
//	evilbloom table1    attack success probabilities
//	evilbloom table2    query cost: naive vs digest recycling
//	evilbloom squid     two-proxy cache-digest pollution experiment
//	evilbloom params    average-case vs worst-case parameter designs (§8.1)
//	evilbloom overflow  §6.2 counter-overflow attack demonstration
//	evilbloom serve     multi-filter service over HTTP: named bloom/counting/
//	                    blocked filters (§8 and §4.3 made live); -resp-addr
//	                    adds the redis-protocol binary plane
//	evilbloom resp-cli  one-shot RESP client (redis-cli stand-in for scripts)
//
// Every experiment subcommand prints the paper's reference values next to
// the measured ones. All runs are deterministic for a fixed -seed.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"evilbloom/internal/analysis"
	"evilbloom/internal/attack"
	"evilbloom/internal/core"
	"evilbloom/internal/hashes"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evilbloom:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "fig3":
		return cmdFig3(rest)
	case "fig5":
		return cmdFig5(rest)
	case "fig6":
		return cmdFig6(rest)
	case "fig8":
		return cmdFig8(rest)
	case "fig9":
		return cmdFig9(rest)
	case "table1":
		return cmdTable1(rest)
	case "table2":
		return cmdTable2(rest)
	case "squid":
		return cmdSquid(rest)
	case "params":
		return cmdParams(rest)
	case "overflow":
		return cmdOverflow(rest)
	case "serve":
		return cmdServe(rest)
	case "resp-cli":
		return cmdRespCLI(rest)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: evilbloom <subcommand> [flags]

subcommands:
  fig3      pollution curves (paper Fig 3)
  fig5      polluting-URL forging cost (paper Fig 5)
  fig6      ghost-URL forging cost vs occupation (paper Fig 6)
  fig8      Dablooms pollution (paper Fig 8)
  fig9      digest bits and single-call domains (paper Fig 9)
  table1    attack success probabilities (paper Table 1)
  table2    naive vs recycling query cost (paper Table 2)
  squid     sibling-proxy cache-digest pollution (paper §7)
  params    worst-case vs average-case design (paper §8.1)
  overflow  counter-overflow attack (paper §6.2)
  serve     multi-filter HTTP service: named bloom/counting/blocked filters,
            naive or hardened, with remove endpoints (§8 and §4.3 live);
            -resp-addr adds the redis-protocol binary plane
  resp-cli  one-shot RESP client (redis-cli stand-in for scripts):
            evilbloom resp-cli -addr 127.0.0.1:6390 BF.ADD default item
`)
}

func cmdFig3(args []string) error {
	fs := flag.NewFlagSet("fig3", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	chart := fs.Bool("chart", true, "render an ASCII chart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := analysis.DefaultFig3Config()
	cfg.Seed = *seed
	res, err := analysis.RunFig3(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Fig 3 — false-positive probability vs insertions (m=%d, k=%d)\n\n", cfg.M, cfg.K)
	rows := [][]string{
		{"designer threshold f_opt", fmt.Sprintf("%.4f", res.ThresholdFPR), "0.077"},
		{"random insertions to threshold", fmt.Sprintf("%d", res.CrossingRandom), "600"},
		{"chosen insertions to threshold", fmt.Sprintf("%d", res.CrossingAdversarial), "422"},
		{"partial (400 honest) to threshold", fmt.Sprintf("%d", res.CrossingPartial), "510"},
		{"f_adv after 600 chosen insertions", fmt.Sprintf("%.4f", res.Adversarial[len(res.Adversarial)-1]), "0.316"},
		{"adversary candidate URLs tried", fmt.Sprintf("%d", res.ForgeAttempts), "-"},
	}
	fmt.Print(analysis.FormatTable([]string{"Metric", "Measured", "Paper"}, rows))
	if *chart {
		sr := &analysis.Series{Label: "random f"}
		sa := &analysis.Series{Label: "f_adv"}
		sp := &analysis.Series{Label: "partial"}
		for i := range res.Random {
			sr.Add(float64(i+1), res.Random[i])
			sa.Add(float64(i+1), res.Adversarial[i])
			sp.Add(float64(i+1), res.Partial[i])
		}
		fmt.Println()
		fmt.Print(analysis.RenderChart("FPR vs inserted items", []*analysis.Series{sa, sp, sr}, 64, 16))
	}
	return nil
}

func cmdFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	budget := fs.Duration("budget", 3*time.Second, "time budget per curve")
	capacity := fs.Uint64("capacity", 1000000, "pyBloom capacity")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := analysis.DefaultFig5Config()
	cfg.Seed = *seed
	cfg.TimeBudget = *budget
	cfg.Capacity = *capacity
	fmt.Printf("Fig 5 — cost of forging polluting URLs (pyBloom capacity %d)\n", cfg.Capacity)
	fmt.Printf("paper: 38 s for 10^6 URLs at f=2^-5; ~2 h at f=2^-20 (exponential in k)\n\n")
	series, err := analysis.RunFig5(cfg)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(series))
	for _, s := range series {
		status := "completed"
		if !s.Completed {
			status = "budget cut"
		}
		last := len(s.Items) - 1
		secs, items, attempts := 0.0, uint64(0), uint64(0)
		if last >= 0 {
			secs, items, attempts = s.Seconds[last], s.Items[last], s.Attempts[last]
		}
		rows = append(rows, []string{
			fmt.Sprintf("2^-%d", s.FPRExponent),
			fmt.Sprintf("%d", s.K),
			fmt.Sprintf("%d", items),
			fmt.Sprintf("%.2f", secs),
			fmt.Sprintf("%d", attempts),
			fmt.Sprintf("%.1f", float64(attempts)/math.Max(float64(items), 1)),
			status,
		})
	}
	fmt.Print(analysis.FormatTable(
		[]string{"f", "k", "URLs forged", "seconds", "candidates", "cand/URL", "status"}, rows))
	chartSeries := make([]*analysis.Series, 0, len(series))
	for i := range series {
		s := &series[i]
		cs := &analysis.Series{Label: fmt.Sprintf("f=2^-%d", s.FPRExponent)}
		for j := range s.Items {
			cs.Add(float64(s.Items[j]), s.Seconds[j])
		}
		chartSeries = append(chartSeries, cs)
	}
	fmt.Println()
	fmt.Print(analysis.RenderChart("cumulative forging time (s) vs URLs forged", chartSeries, 64, 14))
	return nil
}

func cmdFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	capacity := fs.Uint64("capacity", 0, "filter capacity (0 = default)")
	repeats := fs.Int("repeats", 0, "forgeries per point (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := analysis.DefaultFig6Config()
	cfg.Seed = *seed
	if *capacity > 0 {
		cfg.Capacity = *capacity
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	fmt.Printf("Fig 6 — cost of forging one ghost (false-positive) URL vs occupation\n")
	fmt.Printf("paper: up to ~3 h at low occupation for f=2^-10; cost falls steeply as the filter fills\n\n")
	series, err := analysis.RunFig6(cfg)
	if err != nil {
		return err
	}
	for _, s := range series {
		fmt.Printf("f = 2^-%d (k=%d), %.0f ns/candidate\n", s.FPRExponent, s.K, s.NsPerAttempt)
		rows := make([][]string, 0, len(s.Points))
		for _, p := range s.Points {
			measured := "-"
			if p.MeasuredAttempts >= 0 {
				measured = fmt.Sprintf("%.0f (%.3fs)", p.MeasuredAttempts, p.MeasuredSeconds)
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d%%", p.OccupationPct),
				fmt.Sprintf("%.3g", p.AnalyticAttempts),
				fmt.Sprintf("%.3g s", p.EstimatedSeconds),
				measured,
			})
		}
		fmt.Print(analysis.FormatTable(
			[]string{"occupation", "E[candidates]", "est. time", "measured"}, rows))
		fmt.Println()
	}
	return nil
}

func cmdFig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	capacity := fs.Uint64("capacity", 10000, "items per stage (δ)")
	probes := fs.Int("probes", 200000, "empirical probes (0 = analytic only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := analysis.DefaultFig8Config()
	cfg.Seed = *seed
	cfg.StageCapacity = *capacity
	cfg.Probes = *probes
	fmt.Printf("Fig 8 — Dablooms compound F vs #polluted stages (λ=%d, δ=%d, f0=%.2f, r=%.1f)\n\n",
		cfg.Stages, cfg.StageCapacity, cfg.F0, cfg.R)
	res, err := analysis.RunFig8(cfg)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, cfg.Stages+1)
	for i, est := range res.EstimatedF {
		emp := "-"
		if len(res.EmpiricalF) > i {
			emp = fmt.Sprintf("%.4f", res.EmpiricalF[i])
		}
		rows = append(rows, []string{fmt.Sprintf("%d", i), fmt.Sprintf("%.4f", est), emp})
	}
	fmt.Print(analysis.FormatTable([]string{"# polluted stages", "F (estimated)", "F (empirical)"}, rows))
	fmt.Printf("\nanalytic no-attack F = %.4f (paper curve ≈0.06)\n", res.AnalyticNoAttack)
	fmt.Printf("analytic full-attack F = %.4f (paper curve ≈0.6–0.7)\n", res.AnalyticFull)
	return nil
}

func cmdFig9(args []string) error {
	fs := flag.NewFlagSet("fig9", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	exponents := []int{5, 10, 15, 20}
	sizes := []uint64{128, 256, 384, 512, 640, 768, 896, 1024}
	fmt.Println("Fig 9 — digest bits needed per item: k·⌈log₂m⌉")
	fmt.Println()
	fmt.Print(analysis.FormatFig9(analysis.RunFig9(sizes, exponents), exponents))
	fmt.Println("\nSingle-call domains (largest filter covered by one digest):")
	rows := [][]string{}
	for _, d := range analysis.RunFig9Domains(exponents) {
		limit := "needs multiple calls at ≥1 MB"
		switch {
		case d.MaxMBytes >= analysis.DomainCapMBytes:
			limit = "≥1 TB"
		case d.MaxMBytes > 0:
			limit = fmt.Sprintf("%d MB", d.MaxMBytes)
		}
		rows = append(rows, []string{d.Algorithm.String(), fmt.Sprintf("2^-%d", d.FPRExponent), limit})
	}
	fmt.Print(analysis.FormatTable([]string{"Hash", "f", "Single-call up to"}, rows))
	fmt.Println("\npaper: one SHA-512 call suffices for f ≥ 2^-15 and m < 1 GByte")
	return nil
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	m := fs.Uint64("m", 3200, "filter size in bits")
	k := fs.Int("k", 4, "hash functions")
	w := fs.Uint64("w", 800, "Hamming weight W")
	ell := fs.Int("ell", 32, "digest bits of the underlying hash")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("Table 1 — attack success probabilities (m=%d, k=%d, W=%d, ℓ=%d)\n\n", *m, *k, *w, *ell)
	fmt.Print(analysis.FormatTable1(analysis.RunTable1(*ell, *m, *k, *w)))
	fmt.Println("\nordering (§4): pollution ≻ forgery ≻ deletion-per-item; Bloom second")
	fmt.Println("pre-images (1/m^k) are far easier than hash second pre-images (1/2^ℓ)")
	return nil
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	iters := fs.Int("iters", 30000, "measurement iterations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := analysis.DefaultTable2Config()
	cfg.Iterations = *iters
	k := core.KForFPR(cfg.FPR)
	m := core.OptimalM(cfg.Capacity, cfg.FPR)
	fmt.Printf("Table 2 — query cost, naive (k=%d calls) vs digest recycling\n", k)
	fmt.Printf("filter: n=%d, f=2^-10, m=%d bits (%.2f MB), 32-byte items\n\n", cfg.Capacity, m, float64(m)/8/(1<<20))
	rows, err := analysis.RunTable2(cfg)
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatTable2(rows))
	fmt.Println("\npaper (OpenSSL, µs): Murmur 0.7/-; MD5 5.9/0.28; SHA-1 6/0.29; SHA-256 51/0.49;")
	fmt.Println("SHA-384 53.3/0.78; SHA-512 53.6/0.8; HMAC-SHA-1 11.8/1.2; SipHash 1.7/0.3")
	fmt.Println("\nthe speedup tracks the call ratio because slicing is free: a 64-bit digest is")
	fmt.Println("cut in a register, so SipHash-2-4 reads ≈ 2x here (5 calls against 10)")
	return nil
}

func cmdSquid(args []string) error {
	fs := flag.NewFlagSet("squid", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := analysis.DefaultExperimentConfig()
	cfg.Seed = *seed
	fmt.Printf("§7 — Squid cache-digest pollution (%d clean + %d extra URLs, %d probes, RTT %v)\n\n",
		cfg.CleanURLs, cfg.ExtraURLs, cfg.Probes, cfg.RTT)
	res, err := analysis.RunSquid(cfg)
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatSquid(res, cfg.Probes))
	fmt.Println("\npaper: 79% false-positive hits polluted vs 40% clean; every false hit")
	fmt.Println("wastes ≥1 RTT (10 ms) between the sibling proxies")
	return nil
}

func cmdParams(args []string) error {
	fs := flag.NewFlagSet("params", flag.ContinueOnError)
	m := fs.Uint64("m", 3200, "filter size in bits")
	n := fs.Uint64("n", 600, "anticipated insertions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := core.DesignWorstCase(*m, *n)
	if err != nil {
		return err
	}
	fmt.Printf("§8.1 — average-case vs worst-case design (m=%d, n=%d)\n\n", *m, *n)
	rows := [][]string{
		{"k", fmt.Sprintf("%d (eq 2: %.2f)", d.OptimalK, core.OptimalK(*m, *n)), fmt.Sprintf("%d (eq 9: %.2f)", d.K, core.WorstCaseK(*m, *n))},
		{"honest FPR", fmt.Sprintf("%.4f", d.OptimalFPR), fmt.Sprintf("%.4f", d.HonestFPR)},
		{"FPR under pollution", fmt.Sprintf("%.4f", d.OptimalAdversarialFPR), fmt.Sprintf("%.4f", d.AdversarialFPR)},
	}
	fmt.Print(analysis.FormatTable([]string{"Metric", "average-case design", "worst-case design"}, rows))
	fmt.Printf("\nk_opt/k_adv = e·ln2 = %.2f (paper: 1.88)\n", core.KRatio())
	fmt.Printf("f_adv/f_opt per unit m/n = 1.05 (paper §8.1)\n")
	fmt.Printf("size factor, same honest FPR: %.2f (paper states %.1f; see EXPERIMENTS.md)\n",
		core.SizeFactorSameHonestFPR(), core.PaperSizeFactor)
	return nil
}

func cmdOverflow(args []string) error {
	fs := flag.NewFlagSet("overflow", flag.ContinueOnError)
	capacity := fs.Uint64("capacity", 10000, "stage capacity δ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := core.DefaultDabloomsConfig()
	cfg.StageCapacity = *capacity
	cfg.MaxStages = 1
	d, err := core.NewDablooms(cfg)
	if err != nil {
		return err
	}
	stage := d.CountingStages()[0]
	fam, ok := stage.Family().(*hashes.DoubleHashing)
	if !ok {
		return fmt.Errorf("stage does not use double hashing")
	}
	forger, err := attack.NewInstantForger(fam, []byte("http://evil.com/"), 1)
	if err != nil {
		return err
	}
	items, err := forger.EmptyViaOverflow(stage, *capacity)
	if err != nil {
		return err
	}
	for _, it := range items {
		d.Add(it)
	}
	a := (*capacity * uint64(stage.K())) % (stage.CounterMax() + 1)
	fmt.Printf("§6.2 — counter-overflow attack against one dablooms stage\n\n")
	rows := [][]string{
		{"stage capacity δ", fmt.Sprintf("%d", *capacity)},
		{"insertions performed", fmt.Sprintf("%d", stage.Count())},
		{"counters (m)", fmt.Sprintf("%d", stage.M())},
		{"non-zero counters after attack", fmt.Sprintf("%d", stage.Weight())},
		{"paper residue a = nk mod 16", fmt.Sprintf("%d", a)},
		{"overflow events", fmt.Sprintf("%d", stage.Overflows())},
	}
	fmt.Print(analysis.FormatTable([]string{"Metric", "Value"}, rows))
	fmt.Println("\nthe stage reports itself full while storing nothing — \"a complete")
	fmt.Println("waste of memory\"; crafted via constant-time MurmurHash3-128 inversion")
	return nil
}
