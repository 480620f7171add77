// Command entk-experiments regenerates the paper's evaluation (§IV): every
// figure from Fig 6 through Fig 11. Each experiment prints the same rows or
// series the paper reports, in virtual seconds where the paper reports
// seconds.
//
// Usage:
//
//	entk-experiments -exp all            # run everything
//	entk-experiments -exp 5,6            # weak and strong scaling only
//	entk-experiments -exp 7 -quick       # smoke-test sizing
//	entk-experiments -exp 0 -tasks 1000000
//
// Experiment numbers: 0 = Fig 6 prototype (even, then uneven producer/
// consumer distributions); 1-4 = Fig 7a-d overheads;
// 5 = Fig 8 weak scaling; 6 = Fig 9 strong scaling; 7 = Fig 10 seismic
// ensemble; 8 = Fig 11 AnEn adaptive vs random; 9 = Fig 10 full series
// (every ensemble size x concurrency); 10 = Fig 6 BatchSize x
// consumer-count grid over the sharded broker; 11 = Fig 8-style
// weak-scaling sweep across broker batch sizes; 13 = Fig 8-style
// weak-scaling sweep across agent scheduler counts (the multi-scheduler
// agent over the sharded task store); 14 = live-autotuning ablation (bursty
// workload, the knob controller vs every static grid setting).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiments to run: comma-separated subset of 0-9, or 'all'")
		quick     = flag.Bool("quick", false, "shrink experiment sizes (smoke test)")
		scale     = flag.Duration("scale", 0, "wall time per virtual second (0 = per-experiment default)")
		fig6Tasks = flag.Int("tasks", 1000000, "task count for the Fig 6 prototype")
		verbose   = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	opts := &experiments.Options{Quick: *quick, Scale: *scale}
	if *verbose {
		opts.Verbose = os.Stderr
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for i := 0; i <= 8; i++ {
			want[fmt.Sprint(i)] = true
		}
	} else {
		for _, s := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "entk-experiments: %v\n", err)
		os.Exit(1)
	}

	start := time.Now()
	if want["0"] {
		tasks := *fig6Tasks
		if *quick {
			tasks = 50000
		}
		rows, err := experiments.Fig6Prototype(tasks, nil)
		if err != nil {
			fail(err)
		}
		experiments.RenderFig6(os.Stdout, rows)
		fmt.Println("\nUneven distributions (the paper notes these are less efficient):")
		if rows, err = experiments.Fig6Uneven(tasks); err != nil {
			fail(err)
		}
		experiments.RenderFig6(os.Stdout, rows)
	}
	if want["1"] {
		rows, err := experiments.Fig7a(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderOverheads(os.Stdout, "Fig 7a / Experiment 1: overheads vs task executable (SuperMIC, 1x1x16, 300 s)", rows)
	}
	if want["2"] {
		rows, err := experiments.Fig7b(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderOverheads(os.Stdout, "Fig 7b / Experiment 2: overheads vs task duration (SuperMIC, 1x1x16, sleep)", rows)
	}
	if want["3"] {
		rows, err := experiments.Fig7c(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderOverheads(os.Stdout, "Fig 7c / Experiment 3: overheads vs CI (1x1x16, sleep 100 s)", rows)
	}
	if want["4"] {
		rows, err := experiments.Fig7d(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderOverheads(os.Stdout, "Fig 7d / Experiment 4: overheads vs PST structure (SuperMIC, sleep 100 s)", rows)
	}
	if want["5"] {
		rows, err := experiments.Fig8WeakScaling(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderScaling(os.Stdout, "Fig 8: weak scaling on Titan (1-core 600 s mdrun, cores = tasks)", rows)
	}
	if want["6"] {
		rows, err := experiments.Fig9StrongScaling(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderScaling(os.Stdout, "Fig 9: strong scaling on Titan (8,192 1-core 600 s mdrun tasks)", rows)
	}
	if want["7"] {
		rows, err := experiments.Fig10Seismic(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderFig10(os.Stdout, rows)
	}
	if want["8"] {
		res, err := experiments.Fig11AnEn(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderFig11(os.Stdout, res)
	}
	if want["9"] {
		rows, err := experiments.Fig10Series(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderFig10(os.Stdout, rows)
	}
	if want["10"] {
		tasks := *fig6Tasks
		if *quick {
			tasks = 50000
		}
		rows, err := experiments.Fig6Grid(tasks, nil, nil)
		if err != nil {
			fail(err)
		}
		experiments.RenderFig6(os.Stdout, rows)
	}
	if want["11"] {
		rows, err := experiments.Fig8BatchSweep(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderBatchSweep(os.Stdout, rows)
	}
	if want["13"] {
		rows, err := experiments.Fig8SchedulerSweep(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderSchedulerSweep(os.Stdout, rows)
	}
	if want["14"] {
		rows, err := experiments.Fig10Live(opts)
		if err != nil {
			fail(err)
		}
		experiments.RenderFig10Live(os.Stdout, rows)
	}
	if want["tune"] {
		rec, err := experiments.AutotuneConcurrency(opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nAutotuned operating point (automating the paper's §IV-C1 decision):\n")
		fmt.Printf("  recommended concurrency: %d tasks (%.1fx speedup vs serial)\n",
			rec.Concurrency, rec.SpeedupVsSerial)
		for _, o := range rec.Observations {
			fmt.Printf("  c=%-3d makespan %8.1f s, failure rate %.2f\n",
				o.Concurrency, o.Result.MakespanS, o.FailureRate)
		}
	}
	fmt.Fprintf(os.Stderr, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}
