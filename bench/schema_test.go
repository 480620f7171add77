package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// contractFile mirrors BENCHMARK.json key for key.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("%s is %d bytes, over the 64 KiB limit", benchmarkFile, len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var c contractFile
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("%s: %v", benchmarkFile, err)
	}
	return c
}

// TestDeclarationsAreWellFormed holds the declared tables to the contract's
// limits: names, units, directions, bounds, one-line reasons.
func TestDeclarationsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.shape.n() != ensembleTasks && w.kind != kindDaemon {
			t.Errorf("workload %s moves %d tasks per rep, want %d", w.name, w.shape.n(), ensembleTasks)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is malformed", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: direction %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", d)
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps the contract file and the
// program's own tables identical, so the driver and -list describe the same
// benchmark.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if !reflect.DeepEqual(c.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", c.Command)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in %s, %d declared", len(c.Workloads), benchmarkFile, len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, program declares %s: %s", i, c.Workloads[i], w.name, w.why)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in file, %d declared", len(c.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := c.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: file has %+v, program declares %+v", i, got, d)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in file, %d declared", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := c.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: file has %+v, program declares %+v", i, got, d)
		}
	}
}

// TestPercentilesHaveSamplesBeyond checks, from the declared sizes alone,
// that every reported percentile keeps at least ten samples beyond it: the
// per-workload turnaround tails at their minimum sample counts, the hop
// p99s at one run's task count, and the open-loop p99s at the arrival
// counts the contract's run length yields.
func TestPercentilesHaveSamplesBeyond(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		if w.tailPct == 50 {
			continue // too few samples for a tail: the cell repeats the median
		}
		if got := samplesBeyond(w.minSamples, w.tailPct); got < minBeyond {
			t.Errorf("%s: p%g of %d samples leaves %d beyond it", w.name, w.tailPct, w.minSamples, got)
		}
	}
	if got := samplesBeyond(ensembleTasks, 99); got < minBeyond {
		t.Errorf("hop p99 of one run's %d tasks leaves %d beyond it", ensembleTasks, got)
	}
	for what, window := range map[string]time.Duration{
		"the daemon probe's open loop":      probeOpenLoop,
		"daemon-open's untraced baseline":   time.Duration(c.RunSeconds) * time.Second / 3,
		"daemon-open's hop p99 (one third)": time.Duration(c.RunSeconds) * time.Second / 3,
	} {
		if got := samplesBeyond(int(daemonRate*window.Seconds()), 99); got < minBeyond {
			t.Errorf("%s: p99 of %v at %g runs/s leaves %d beyond it", what, window, daemonRate, got)
		}
	}
	if dw := findWorkload("daemon-open"); float64(dw.minSamples) > daemonRate*float64(c.RunSeconds) {
		t.Errorf("daemon-open declares %d samples, a %d s run yields %g", dw.minSamples, c.RunSeconds, daemonRate*float64(c.RunSeconds))
	}
}

// small is w with its application scaled down, so the whole output schema
// can be exercised in well under a second per workload.
func small(w workload) *workload {
	switch w.kind {
	case kindDaemon: // its application is already 16 tasks
	case kindDurable:
		w.shape = shape{pipelines: 1, stages: 2, tasks: 32, cores: 64}
	default:
		w.shape.pipelines = min(w.shape.pipelines, 4)
		w.shape.stages = min(w.shape.stages, 8)
		w.shape.tasks = min(w.shape.tasks, 64)
		w.shape.cores = 64
	}
	return &w
}

func testOptions(t *testing.T) options {
	dir := t.TempDir()
	return options{seed: 1, seconds: 30 * time.Millisecond, out: dir, tmp: dir}
}

// lateAttached names the traced-pass metrics that a daemon-hosted run can
// leave without samples: the harness can subscribe only once Submit has
// returned, and a 16-task run may be over by then.
func lateAttached(w *workload, metric string) bool {
	return w.kind == kindDaemon && (strings.Contains(metric, ".hop_") || strings.Contains(metric, ".task_latency_"))
}

func checkMetrics(t *testing.T, w *workload, got map[string]value, defs []metricDef) {
	t.Helper()
	label := w.name
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", label, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, d.name)
		case v.unit != d.unit:
			t.Errorf("%s: metric %s in %q, declared %q", label, d.name, v.unit, d.unit)
		case v.n < 1 && !lateAttached(w, d.name):
			t.Errorf("%s: metric %s has sample count %d", label, d.name, v.n)
		case math.IsNaN(v.v) || math.IsInf(v.v, 0):
			t.Errorf("%s: metric %s is %v", label, d.name, v.v)
		}
	}
}

// TestEveryWorkloadReportsEveryEndToEndMetric runs each workload scaled
// down with tracing off and holds the result to the contract's output
// schema: every declared metric, positive, in its unit; a clean tally; and
// a result line with exactly the four keys.
func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			rep, _, err := untraced(w, testOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Why)
			}
			checkMetrics(t, w, rep.Metrics, endToEnd)
			for _, d := range endToEnd {
				if rep.Metrics[d.name].v <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, rep.Metrics[d.name].v)
				}
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(rep.contractLine(), &line); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := line[key]; !ok {
					t.Errorf("result line lacks %q", key)
				}
			}
			if len(line) != 4 {
				t.Errorf("result line has %d keys, want exactly 4", len(line))
			}
		})
	}
}

// TestTracedRunReportsEveryPerLayerMetric runs the traced report on two
// scaled-down workloads (one through the hand-wired stack, one through the
// daemon) and checks every declared per-layer metric comes back, plus the
// trace file.
func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	for _, name := range []string{"chain", "daemon-open"} {
		w := small(*findWorkload(name))
		t.Run(w.name, func(t *testing.T) {
			o := testOptions(t)
			rep, err := tracedReport(w, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("traced pass incorrect: %v", rep.Why)
			}
			checkMetrics(t, w, rep.Metrics, perLayer)
			raw, err := os.ReadFile(filepath.Join(o.out, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				Workload string
				Drops    uint64
				Spans    [][]any
			}
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatalf("trace.json: %v", err)
			}
			if trace.Workload != w.name || trace.Drops != 0 {
				t.Errorf("trace.json names %q with %d drops", trace.Workload, trace.Drops)
			}
			if w.kind != kindDaemon && len(trace.Spans) < 6*w.shape.n() {
				t.Errorf("trace.json has %d spans, want at least six per task (%d)", len(trace.Spans), 6*w.shape.n())
			}
		})
	}
}

func TestListNamesEverything(t *testing.T) {
	var out bytes.Buffer
	printList(&out)
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.name) {
			t.Errorf("-list omits workload %s", w.name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(out.String(), d.name+" ") {
			t.Errorf("-list omits metric %s", d.name)
		}
	}
}
