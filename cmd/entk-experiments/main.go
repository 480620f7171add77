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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiment is one -exp entry: it runs and renders to w. tasks is the Fig 6
// task count.
type experiment struct {
	name string
	run  func(w io.Writer, opts *experiments.Options, tasks int) error
}

// figure makes a table entry of an experiment and the renderer of its rows.
func figure[R any](fig func(*experiments.Options) (R, error), render func(io.Writer, R)) func(io.Writer, *experiments.Options, int) error {
	return func(w io.Writer, opts *experiments.Options, _ int) error {
		rows, err := fig(opts)
		if err != nil {
			return err
		}
		render(w, rows)
		return nil
	}
}

// titled binds a renderer's title.
func titled[R any](render func(io.Writer, string, R), title string) func(io.Writer, R) {
	return func(w io.Writer, rows R) { render(w, title, rows) }
}

// catalog is every experiment, in the order they run; "all" is the first nine.
var catalog = []experiment{
	{"0", func(w io.Writer, _ *experiments.Options, tasks int) error {
		rows, err := experiments.Fig6Prototype(tasks, nil)
		if err != nil {
			return err
		}
		experiments.RenderFig6(w, rows)
		fmt.Fprintln(w, "\nUneven distributions (the paper notes these are less efficient):")
		if rows, err = experiments.Fig6Uneven(tasks); err != nil {
			return err
		}
		experiments.RenderFig6(w, rows)
		return nil
	}},
	{"1", figure(experiments.Fig7a, titled(experiments.RenderOverheads, "Fig 7a / Experiment 1: overheads vs task executable (SuperMIC, 1x1x16, 300 s)"))},
	{"2", figure(experiments.Fig7b, titled(experiments.RenderOverheads, "Fig 7b / Experiment 2: overheads vs task duration (SuperMIC, 1x1x16, sleep)"))},
	{"3", figure(experiments.Fig7c, titled(experiments.RenderOverheads, "Fig 7c / Experiment 3: overheads vs CI (1x1x16, sleep 100 s)"))},
	{"4", figure(experiments.Fig7d, titled(experiments.RenderOverheads, "Fig 7d / Experiment 4: overheads vs PST structure (SuperMIC, sleep 100 s)"))},
	{"5", figure(experiments.Fig8WeakScaling, titled(experiments.RenderScaling, "Fig 8: weak scaling on Titan (1-core 600 s mdrun, cores = tasks)"))},
	{"6", figure(experiments.Fig9StrongScaling, titled(experiments.RenderScaling, "Fig 9: strong scaling on Titan (8,192 1-core 600 s mdrun tasks)"))},
	{"7", figure(experiments.Fig10Seismic, experiments.RenderFig10)},
	{"8", figure(experiments.Fig11AnEn, experiments.RenderFig11)},
	{"9", figure(experiments.Fig10Series, experiments.RenderFig10)},
	{"10", func(w io.Writer, _ *experiments.Options, tasks int) error {
		rows, err := experiments.Fig6Grid(tasks, nil, nil)
		if err != nil {
			return err
		}
		experiments.RenderFig6(w, rows)
		return nil
	}},
	{"11", figure(experiments.Fig8BatchSweep, experiments.RenderBatchSweep)},
	{"13", figure(experiments.Fig8SchedulerSweep, experiments.RenderSchedulerSweep)},
	{"14", figure(experiments.Fig10Live, experiments.RenderFig10Live)},
	{"tune", figure(experiments.AutotuneConcurrency, func(w io.Writer, rec *autotune.Recommendation) {
		fmt.Fprintf(w, "\nAutotuned operating point (automating the paper's §IV-C1 decision):\n")
		fmt.Fprintf(w, "  recommended concurrency: %d tasks (%.1fx speedup vs serial)\n",
			rec.Concurrency, rec.SpeedupVsSerial)
		for _, o := range rec.Observations {
			fmt.Fprintf(w, "  c=%-3d makespan %8.1f s, failure rate %.2f\n",
				o.Concurrency, o.Result.MakespanS, o.FailureRate)
		}
	})},
}

// run is main with its arguments and output streams as parameters. It returns
// the exit code: 2 for a command line it cannot use (an unknown -exp among
// them), 1 for an experiment that fails, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	flags := flag.NewFlagSet("entk-experiments", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		expFlag   = flags.String("exp", "all", "experiments to run: 'all' (0-8) or a comma-separated subset of "+strings.Join(names, ","))
		quick     = flags.Bool("quick", false, "shrink experiment sizes (smoke test)")
		scale     = flags.Duration("scale", 0, "wall time per virtual second (0 = per-experiment default)")
		fig6Tasks = flags.Int("tasks", 1000000, "task count for the Fig 6 prototype")
		verbose   = flags.Bool("v", false, "progress output")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts := &experiments.Options{Quick: *quick, Scale: *scale}
	if *verbose {
		opts.Verbose = stderr
	}
	tasks := *fig6Tasks
	if *quick {
		tasks = 50000
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for _, name := range names[:9] {
			want[name] = true
		}
	} else {
		for _, name := range strings.Split(*expFlag, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(names, name) {
				fmt.Fprintf(stderr, "entk-experiments: unknown experiment %q (known: %s)\n", name, strings.Join(names, ","))
				return 2
			}
			want[name] = true
		}
	}

	start := time.Now()
	for _, e := range catalog {
		if !want[e.name] {
			continue
		}
		if err := e.run(stdout, opts, tasks); err != nil {
			fmt.Fprintf(stderr, "entk-experiments: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
