// Command pgbench regenerates the paper's evaluation artifacts: Table III,
// Figures 2 and 3, and the extra validation/ablation experiments of
// DESIGN.md. Output is a text rendering shaped like the paper's tables.
//
// Usage:
//
//	pgbench -exp all                 # everything (several minutes at -n 100000)
//	pgbench -exp table3a             # privacy guarantees vs k
//	pgbench -exp fig2a -n 50000      # classification error vs k, m=2
//	pgbench -exp breach -trials 400  # Monte-Carlo validation of Theorems 2/3
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"pgpub/internal/experiments"
	"pgpub/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table3a|table3b|fig2a|fig2b|fig3a|fig3b|breach|ablation-gen|ablation-tree|cardinality|query|repub|miners|dp|all")
	n := flag.Int("n", 100000, "SAL microdata cardinality for utility experiments")
	seed := flag.Int64("seed", 42, "random seed")
	reps := flag.Int("reps", 1, "repetitions per utility point (averaged)")
	trials := flag.Int("trials", 200, "Monte-Carlo trials per breach scenario")
	workers := flag.Int("workers", 0, "worker goroutines for sweeps and Monte Carlo (0 = GOMAXPROCS); output is identical for any value")
	benchout := flag.String("benchout", "", "merge the dp block as JSON into this file (-exp dp), e.g. BENCH_pg.json; the other blocks are kept")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metrics := flag.Bool("metrics", false, "instrument the pipeline and print the counter/phase report on exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :6060)")
	flag.Parse()

	reg, stop, err := obs.CLI{
		Name: "pgbench", Metrics: *metrics, DebugAddr: *debugAddr,
		Report: os.Stdout, Header: "=== metrics ===\n",
	}.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgbench: %v\n", err)
		os.Exit(1)
	}
	defer stop()
	experiments.SetMetrics(reg)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pgbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pgbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pgbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "pgbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table3a", func() error {
		rows, err := experiments.TableIIIa()
		if err != nil {
			return err
		}
		fmt.Println("Table III(a): privacy guarantees of PG, p = 0.3 (lambda=0.1, rho1=0.2, |Us|=50)")
		fmt.Print(experiments.RenderTableIII(rows, "k"))
		return nil
	})
	run("table3b", func() error {
		rows, err := experiments.TableIIIb()
		if err != nil {
			return err
		}
		fmt.Println("Table III(b): privacy guarantees of PG, k = 6")
		fmt.Print(experiments.RenderTableIII(rows, "p"))
		return nil
	})

	utility := func(m int, fig func(experiments.UtilityConfig) ([]experiments.UtilityPoint, error), x, title string) func() error {
		return func() error {
			pts, err := fig(experiments.UtilityConfig{N: *n, Seed: *seed, M: m, Reps: *reps, Workers: *workers})
			if err != nil {
				return err
			}
			fmt.Println(title)
			fmt.Print(experiments.RenderUtility(pts, x))
			return nil
		}
	}
	run("fig2a", utility(2, experiments.Figure2, "k",
		fmt.Sprintf("Figure 2(a): classification error vs k (m=2, p=0.3, n=%d)", *n)))
	run("fig2b", utility(3, experiments.Figure2, "k",
		fmt.Sprintf("Figure 2(b): classification error vs k (m=3, p=0.3, n=%d)", *n)))
	run("fig3a", utility(2, experiments.Figure3, "p",
		fmt.Sprintf("Figure 3(a): classification error vs p (m=2, k=6, n=%d)", *n)))
	run("fig3b", utility(3, experiments.Figure3, "p",
		fmt.Sprintf("Figure 3(b): classification error vs p (m=3, k=6, n=%d)", *n)))

	run("breach", func() error {
		scenarios, err := experiments.BreachValidation(experiments.BreachConfig{
			N: 2000, Trials: *trials, Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Println("Extra E1: Monte-Carlo validation of Theorems 2 and 3 (0 breaches expected)")
		fmt.Print(experiments.RenderBreach(scenarios))
		return nil
	})
	run("ablation-gen", func() error {
		rows, err := experiments.AblationGeneralizer(*n/5, *seed, 6, 0.3)
		if err != nil {
			return err
		}
		fmt.Println("Extra E2: Phase-2 algorithm ablation (k=6, p=0.3)")
		fmt.Print(experiments.RenderAblationGen(rows))
		return nil
	})
	run("ablation-tree", func() error {
		rows, err := experiments.AblationReconstruction(*n/5, *seed, 6, nil)
		if err != nil {
			return err
		}
		fmt.Println("Extra E3: perturbation-reconstruction ablation (k=6)")
		fmt.Print(experiments.RenderAblationTree(rows))
		return nil
	})
	run("query", func() error {
		rows, err := experiments.QueryUtility(*n/2, *seed, 6, 0.3)
		if err != nil {
			return err
		}
		fmt.Println("Extra E5: aggregate COUNT-query accuracy over D* (k=6, p=0.3)")
		fmt.Print(experiments.RenderQueryUtility(rows))
		return nil
	})
	run("repub", func() error {
		rows, err := experiments.Republication(*trials/3, *seed, 0.3)
		if err != nil {
			return err
		}
		fmt.Println("Extra E6: confidence accumulation across repeated releases (hospital, p=0.3, k=2, worst-case corruption)")
		fmt.Print(experiments.RenderRepublication(rows))
		return nil
	})
	run("miners", func() error {
		rows, err := experiments.MinerComparison(*n/3, *seed, 6, nil)
		if err != nil {
			return err
		}
		fmt.Println("Extra E7: mining-modality comparison on the same D* (k=6)")
		fmt.Print(experiments.RenderMiners(rows))
		return nil
	})
	run("cardinality", func() error {
		rows, err := experiments.CardinalitySweep(nil, *seed, 6, 0.3)
		if err != nil {
			return err
		}
		fmt.Println("Extra E4: PG utility vs microdata cardinality (k=6, p=0.3)")
		fmt.Print(experiments.RenderCardinality(rows))
		return nil
	})

	run("dp", func() error {
		drep, err := experiments.DPUtility(*n, *seed, 6, 0.3, nil)
		if err != nil {
			return err
		}
		fmt.Printf("DP: COUNT accuracy under the Laplace serving mechanism vs epsilon (k=6, p=0.3, n=%d)\n", *n)
		fmt.Print(experiments.RenderDP(drep))
		if *benchout != "" {
			if err := experiments.UpdateReport(*benchout, func(rep *experiments.PerfReport) { rep.DP = drep }); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchout)
		}
		return nil
	})

	switch *exp {
	case "all", "table3a", "table3b", "fig2a", "fig2b", "fig3a", "fig3b",
		"breach", "ablation-gen", "ablation-tree", "cardinality", "query", "repub", "miners", "dp":
	default:
		fmt.Fprintf(os.Stderr, "pgbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
