// Command bench is the repository's end-to-end benchmark: six workloads
// against the real stack, every run's outputs checked, every metric printed
// by name and unit. See README.md in this directory for the definitions and
// BENCHMARK.json at the repository root for the contract.
//
//	go run ./bench                       all workloads: untraced pass, traced pass, layer budget
//	go run ./bench -workload chain       one workload, end-to-end metrics as one JSON line
//	go run ./bench -workload chain -trace 1    its per-layer metrics instead
//	go run ./bench -repeat 2             run the end-to-end suite twice and compare against the bounds
//	go run ./bench -list                 declared workloads and metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything the benchmark writes: trace.json, results.json
// and the per-process scratch directory (journals, the daemon socket).
const outDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its metrics as the last line, one JSON object (default: all workloads, human-readable)")
		seeds   = flag.String("seed", "1", "input seed; with -repeat, a comma-separated list cycled over the sets")
		seconds = flag.Int("seconds", 15, "how long each pass measures, in seconds")
		trace   = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics (tracing off), 1 the per-layer metrics (traced pass plus layer probes)")
		list    = flag.Bool("list", false, "print the declared workloads and metrics and exit")
		repeat  = flag.Int("repeat", 0, "run the end-to-end suite this many times, print each metric's values and spread per workload, and exit non-zero if a spread exceeds the metric's bound in BENCHMARK.json")
	)
	flag.Parse()
	if *list {
		printList(os.Stdout)
		return
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments:", err, flag.Args())
		os.Exit(2)
	}

	// One process, at most four Ps: the suite is sized for a small shared
	// box, and a fixed ceiling keeps shard and scheduler defaults (which
	// follow GOMAXPROCS) the same on bigger ones.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fatal(err)
	}
	code := 0
	defer func() {
		os.RemoveAll(tmp) //nolint:errcheck // scratch
		os.Exit(code)
	}()
	o := options{seed: seedList[0], seconds: time.Duration(*seconds) * time.Second, warmup: warmupReps, out: outDir, tmp: tmp}

	switch {
	case *repeat > 0:
		code = runRepeat(o, seedList, *repeat)
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *name)
			code = 2
			return
		}
		code = runContract(w, o, *trace == 1)
	default:
		code = runSuite(o)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// report is one workload's result in one mode.
type report struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Why       []string // violations behind Failed
	Notes     []string // caveats that are not failures
	Metrics   map[string]value
}

// contractLine is the result object the driver reads from the last line.
func (r *report) contractLine() []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for k, v := range r.Metrics {
		out.Metrics[k] = mv{v.v, v.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err) // a non-finite metric: a harness bug
	}
	return b
}

// print renders the report for people, in declaration order.
func (r *report) print(w io.Writer, defs []metricDef) {
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d, fail_ratio %g\n", r.Workload, r.Attempted, r.Failed, ratio)
	for _, why := range r.Why {
		fmt.Fprintf(w, "  VIOLATION %s\n", why)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "  NOTE %s\n", note)
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-6s (%s is better, n=%d)\n", d.name, v.v, v.unit, d.better, v.n)
	}
}

// untraced measures w with tracing off and renders the end-to-end metrics.
// The closed-loop workloads, whose time is the toolkit's own CPU and
// goroutine traffic, calibrate between reps, and their timing metrics are
// divided by the machine slowdown the samples show (calibrate.go).
// daemon-open's latency is mostly modelled timer floors, which the
// calibrator does not follow, and an open loop has no gaps to sample it in:
// it reports as measured.
func untraced(w *workload, o options) (*report, *pass, error) {
	o.calibrate = true
	p, err := w.run(o, nil)
	if err != nil {
		return nil, nil, err
	}
	slow := p.cal.slowdown()
	rep := &report{
		Workload: w.name, Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
		Why: p.why, Metrics: p.endToEnd(w, slow),
	}
	if len(p.cal.samples) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("timing metrics divided by machine slowdown %.4g (%d calibrator samples, median %.4g ms); as measured: %.6g tasks/s",
			slow, len(p.cal.samples), 1000*median(p.cal.samples), p.endToEnd(w, 1)["tasks_per_s"].v))
	}
	if n := len(p.turnUS); w.tailPct != 50 && samplesBeyond(n, w.tailPct) < minBeyond {
		rep.Notes = append(rep.Notes, fmt.Sprintf("turnaround_tail_us: p%g of %d samples has fewer than %d beyond it; run longer",
			w.tailPct, n, minBeyond))
	}
	return rep, p, nil
}

// runContract is the driver's mode: one workload, one JSON line last.
func runContract(w *workload, o options, traced bool) int {
	var rep *report
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		rep, err = tracedReport(w, o, nil)
	} else {
		rep, _, err = untraced(w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep.print(os.Stderr, defs)
	fmt.Printf("%s\n", rep.contractLine())
	return 0
}

// runSuite is the human mode: every workload, untraced then traced, with
// the layer budget, and everything also written to results.json.
func runSuite(o options) int {
	fmt.Printf("bench: GOMAXPROCS=%d seed=%d seconds=%d timeScale=%v N=%d\n",
		runtime.GOMAXPROCS(0), o.seed, int(o.seconds.Seconds()), timeScale, ensembleTasks)
	code := 0
	all := map[string]map[string]map[string]float64{}
	for i := range workloads {
		w := &workloads[i]
		fmt.Printf("\n== %s: %s ==\n", w.name, w.shape)
		e2e, p, err := untraced(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		e2e.print(os.Stdout, endToEnd)
		layers, err := tracedReport(w, o, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		layers.print(os.Stdout, perLayer)
		printBudget(os.Stdout, w, layers.Metrics, e2e.Metrics)
		if !e2e.Correct || !layers.Correct {
			code = 1
		}
		all[w.name] = map[string]map[string]float64{"end_to_end": flat(e2e.Metrics), "per_layer": flat(layers.Metrics)}
	}
	raw, err := json.MarshalIndent(map[string]any{"gomaxprocs": runtime.GOMAXPROCS(0), "seed": o.seed, "claim": nil, "workloads": all}, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, "results.json"), append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

func flat(m map[string]value) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.v
	}
	return out
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-12s %s\n", wl.name, wl.shape)
		fmt.Fprintf(w, "  %-12s why: %s\n", "", wl.why)
		fmt.Fprintf(w, "  %-12s turnaround unit: %s; tail: p%g (at least %d samples)\n", "", wl.unit, wl.tailPct, wl.minSamples)
		timing := "divided by the calibrator's machine slowdown"
		if wl.kind == kindDaemon {
			timing = "as measured"
		}
		fmt.Fprintf(w, "  %-12s timing metrics: %s\n", "", timing)
	}
	fmt.Fprintln(w, "end-to-end metrics (every workload, tracing off):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-36s %-6s %-6s bound %g  %s\n", d.name, d.unit, d.better, d.bound, d.def)
	}
	fmt.Fprintln(w, "per-layer metrics (every workload, traced run):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-36s %-6s %-6s %s\n", d.name, d.unit, d.better, d.def)
	}
}
