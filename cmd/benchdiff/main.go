// Command benchdiff converts `go test -bench` output into a stable JSON
// baseline and compares two such baselines, failing when a tracked
// benchmark regresses beyond a threshold. It is the benchmark-regression
// gate the CI bench-smoke job runs (see docs/ci.md).
//
// Parse mode — turn benchmark text output into JSON:
//
//	go test -run '^$' -bench 'BenchmarkBroker' -benchmem . | tee bench.out
//	benchdiff -parse bench.out -out BENCH_CURRENT.json
//
// Compare mode — gate the current numbers against a checked-in baseline:
//
//	benchdiff -baseline BENCH_BASELINE.json -current BENCH_CURRENT.json
//	benchdiff -baseline BENCH_BASELINE.json -current BENCH_CURRENT.json -warn
//	benchdiff -baseline BENCH_BASELINE.json -current BENCH_CURRENT.json -warn-ns
//
// Compare exits nonzero when any benchmark present in both files regressed
// by more than -threshold percent in ns/op (default 25), or by more than
// -alloc-threshold percent in allocs/op (default 10; negative disables).
// Allocation counts are deterministic where wall time is noisy, so the
// alloc gate is tighter — it is what holds the codec hot paths to their
// pooled-encoder contracts (see docs/ci.md). A benchmark whose baseline is
// zero allocs/op regresses by allocating at all. -warn reports the same
// findings but always exits zero. -warn-ns is the CI mode: ns/op
// regressions warn only (shared-runner wall time is too noisy for a hard
// gate), while allocs/op regressions and missing benchmarks still fail —
// allocation counts are deterministic even on shared hardware. The full
// hard gate (no flag) is for like-for-like hardware. Benchmarks present
// only in the baseline are reported as missing (a rename silently dropping
// coverage should be visible); benchmarks present only in the current file
// are listed as new.
//
// Names are normalized by stripping the trailing -<GOMAXPROCS> suffix so
// baselines recorded on different machines stay comparable.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's tracked numbers.
type Result struct {
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  float64 `json:"b_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_op,omitempty"`
}

// File is the on-disk JSON schema: benchmark name -> numbers.
type File map[string]Result

// benchLine matches e.g.
//
//	BenchmarkBrokerBatch64-8   100   761136 ns/op   123 B/op   64 allocs/op   1.07e+07 msgs/s
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// gomaxprocsSuffix matches the -N parallelism suffix Go appends to names
// when GOMAXPROCS != 1. It is only stripped when the very same -N suffix
// appears on every benchmark of the run: a sub-benchmark whose own name
// ends in a number (e.g. .../shards-8) never ends on the same -N across
// the whole file unless GOMAXPROCS really added it.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

func parse(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type entry struct {
		name string
		res  Result
	}
	var entries []entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		fields := strings.Fields(m[2])
		var res Result
		seen := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				seen = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if seen {
			entries = append(entries, entry{name: m[1], res: res})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Detect the run-wide GOMAXPROCS suffix: present iff every name ends
	// in the same -N.
	suffix := ""
	for i, e := range entries {
		m := gomaxprocsSuffix.FindStringSubmatch(e.name)
		if m == nil {
			suffix = ""
			break
		}
		if i == 0 {
			suffix = "-" + m[1]
			continue
		}
		if "-"+m[1] != suffix {
			suffix = ""
			break
		}
	}
	out := File{}
	for _, e := range entries {
		name := strings.TrimSuffix(e.name, suffix)
		// Keep the best (lowest ns/op) of repeated runs: benchmarks may
		// run with -count > 1 for stability.
		if prev, ok := out[name]; !ok || e.res.NsPerOp < prev.NsPerOp {
			out[name] = e.res
		}
	}
	return out, nil
}

func load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func save(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedNames(f File) []string {
	names := make([]string, 0, len(f))
	for n := range f {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func compare(baseline, current File, thresholdPct, allocThresholdPct float64) (nsRegressions, allocRegressions, missing, added []string) {
	for _, name := range sortedNames(baseline) {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if base.NsPerOp > 0 {
			deltaPct := 100 * (cur.NsPerOp - base.NsPerOp) / base.NsPerOp
			if deltaPct > thresholdPct {
				nsRegressions = append(nsRegressions,
					fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, threshold %.0f%%)",
						name, base.NsPerOp, cur.NsPerOp, deltaPct, thresholdPct))
			}
		}
		if allocThresholdPct < 0 {
			continue
		}
		switch {
		case base.AllocsPerOp > 0:
			deltaPct := 100 * (cur.AllocsPerOp - base.AllocsPerOp) / base.AllocsPerOp
			if deltaPct > allocThresholdPct {
				allocRegressions = append(allocRegressions,
					fmt.Sprintf("%s: %.0f -> %.0f allocs/op (%+.1f%%, threshold %.0f%%)",
						name, base.AllocsPerOp, cur.AllocsPerOp, deltaPct, allocThresholdPct))
			}
		case cur.AllocsPerOp > 0:
			// A zero-alloc baseline is a contract, not a measurement: any
			// allocation at all is a regression.
			allocRegressions = append(allocRegressions,
				fmt.Sprintf("%s: 0 -> %.0f allocs/op (baseline was allocation-free)",
					name, cur.AllocsPerOp))
		}
	}
	for _, name := range sortedNames(current) {
		if _, ok := baseline[name]; !ok {
			added = append(added, name)
		}
	}
	return nsRegressions, allocRegressions, missing, added
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams as parameters. It returns
// the exit code: 2 for a command line or a file it cannot use, 1 for a
// regression or a missing benchmark that fails the gate, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		parseIn   = flags.String("parse", "", "parse `go test -bench` output from this file")
		out       = flags.String("out", "", "with -parse: write the JSON baseline here")
		baseline  = flags.String("baseline", "", "compare: the checked-in baseline JSON")
		current   = flags.String("current", "", "compare: the freshly measured JSON")
		threshold = flags.Float64("threshold", 25, "regression threshold in percent of ns/op")
		allocThr  = flags.Float64("alloc-threshold", 10, "regression threshold in percent of allocs/op (negative disables the alloc gate)")
		warn      = flags.Bool("warn", false, "report regressions but exit zero (noisy shared runners)")
		warnNs    = flags.Bool("warn-ns", false, "ns/op regressions warn only; allocs/op regressions and missing benchmarks still fail (the CI mode: wall time is noisy on shared runners, allocation counts are deterministic)")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	switch {
	case *parseIn != "":
		if *out == "" {
			return fail(fmt.Errorf("-parse requires -out"))
		}
		f, err := parse(*parseIn)
		if err != nil {
			return fail(err)
		}
		if len(f) == 0 {
			return fail(fmt.Errorf("no benchmark results found in %s", *parseIn))
		}
		if err := save(*out, f); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "benchdiff: wrote %d benchmarks to %s\n", len(f), *out)
		return 0

	case *baseline != "" && *current != "":
		base, err := load(*baseline)
		if err != nil {
			return fail(err)
		}
		cur, err := load(*current)
		if err != nil {
			return fail(err)
		}
		nsRegs, allocRegs, missing, added := compare(base, cur, *threshold, *allocThr)
		for _, name := range added {
			fmt.Fprintf(stdout, "benchdiff: new benchmark (not in baseline): %s\n", name)
		}
		for _, name := range missing {
			fmt.Fprintf(stdout, "benchdiff: MISSING from current run (renamed or dropped?): %s\n", name)
		}
		for _, r := range nsRegs {
			fmt.Fprintf(stdout, "benchdiff: REGRESSION %s\n", r)
		}
		for _, r := range allocRegs {
			fmt.Fprintf(stdout, "benchdiff: REGRESSION %s\n", r)
		}
		switch {
		case len(nsRegs) == 0 && len(allocRegs) == 0 && len(missing) == 0:
			fmt.Fprintf(stdout, "benchdiff: OK — %d benchmarks within %.0f%% of baseline\n",
				len(base), *threshold)
		case *warn:
			fmt.Fprintln(stdout, "benchdiff: warn-only mode, not failing the build")
		case *warnNs && len(allocRegs) == 0 && len(missing) == 0:
			fmt.Fprintln(stdout, "benchdiff: ns/op regressions warn only (-warn-ns), not failing the build")
		default:
			return 1
		}
		return 0

	default:
		flags.Usage()
		return 2
	}
}
