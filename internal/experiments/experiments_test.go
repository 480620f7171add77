package experiments

import (
	"strings"
	"testing"
	"time"
)

func quickOpts() *Options {
	return &Options{Quick: true, Scale: 500 * time.Microsecond}
}

func TestFig6PrototypeSmall(t *testing.T) {
	rows, err := Fig6Prototype(20000, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AggregateTime <= 0 {
			t.Fatalf("non-positive aggregate time: %+v", r)
		}
		if r.PeakMemMB < r.BaseMemMB {
			t.Fatalf("peak < base memory: %+v", r)
		}
	}
	// More producers/consumers must not be drastically slower (the paper
	// shows near-linear improvement; we only assert no pathology).
	if rows[1].AggregateTime > rows[0].AggregateTime*4 {
		t.Fatalf("4x components 4x slower: %v vs %v",
			rows[1].AggregateTime, rows[0].AggregateTime)
	}
}

func TestFig6BatchedSmall(t *testing.T) {
	rows, err := Fig6Batched(20000, 64, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AggregateTime <= 0 {
			t.Fatalf("non-positive aggregate time: %+v", r)
		}
		if r.Batch != 64 {
			t.Fatalf("batch = %d", r.Batch)
		}
	}
	if _, err := Fig6Batched(100, 1, nil); err == nil {
		t.Fatal("batch=1 accepted")
	}
}

func TestFig6GridSmall(t *testing.T) {
	rows, err := Fig6Grid(8000, []int{1, 32}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 batches x 2 configs)", len(rows))
	}
	wantBatches := []int{1, 1, 32, 32}
	for i, r := range rows {
		gotBatch := r.Batch
		if gotBatch == 0 {
			gotBatch = 1
		}
		if gotBatch != wantBatches[i] {
			t.Fatalf("row %d batch = %d, want %d", i, gotBatch, wantBatches[i])
		}
		if r.AggregateTime <= 0 {
			t.Fatalf("non-positive aggregate time: %+v", r)
		}
		if r.DecodeFailures != 0 {
			t.Fatalf("broker corrupted %d task objects: %+v", r.DecodeFailures, r)
		}
	}
	if _, err := Fig6Grid(1000, []int{0}, nil); err == nil {
		t.Fatal("batch=0 accepted")
	}
}

func TestFig8BatchSweepQuick(t *testing.T) {
	rows, err := Fig8BatchSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 batches x 2 sizes)", len(rows))
	}
	for _, r := range rows {
		if r.Report.TaskExecution <= 0 {
			t.Fatalf("no task execution recorded: %+v", r)
		}
		if r.Batch != 1 && r.Batch != 64 {
			t.Fatalf("unexpected batch %d", r.Batch)
		}
	}
}

func TestFig8SchedulerSweepQuick(t *testing.T) {
	rows, err := Fig8SchedulerSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (2 scheduler counts x 1 size)", len(rows))
	}
	for _, r := range rows {
		if r.Report.TaskExecution <= 0 {
			t.Fatalf("no task execution recorded: %+v", r)
		}
		if r.Schedulers != 1 && r.Schedulers != 2 {
			t.Fatalf("unexpected scheduler count %d", r.Schedulers)
		}
	}
}

func TestFig6Uneven(t *testing.T) {
	rows, err := Fig6Uneven(5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig7aQuick(t *testing.T) {
	rows, err := Fig7a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Report.TaskExecution <= 0 {
			t.Fatalf("%s: no task execution time", r.Label)
		}
		if r.Report.EnTKManagement <= 0 || r.Report.EnTKSetup <= 0 {
			t.Fatalf("%s: missing overheads: %+v", r.Label, r.Report)
		}
	}
	// Invariance across executables: management overheads within 3x.
	a, b := rows[0].Report.EnTKManagement, rows[1].Report.EnTKManagement
	if a > 3*b || b > 3*a {
		t.Fatalf("management overhead not invariant: %v vs %v", a, b)
	}
	// mdrun stages data; sleep does not.
	if rows[0].Report.DataStaging <= 0 {
		t.Fatal("mdrun run has no staging time")
	}
	if rows[1].Report.DataStaging != 0 {
		t.Fatal("sleep run has staging time")
	}
}

func TestFig7bQuickDurationsReflected(t *testing.T) {
	// Coarse scale so wall-clock noise (CI load, -race) stays small against
	// the 9 s modelled difference between the two rows.
	rows, err := Fig7b(&Options{Quick: true, Scale: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// 10 s tasks must show a clearly larger execution window than 1 s tasks.
	if rows[1].Report.TaskExecution <= rows[0].Report.TaskExecution+3 {
		t.Fatalf("task durations not reflected: %v vs %v",
			rows[0].Report.TaskExecution, rows[1].Report.TaskExecution)
	}
	// Short tasks are inflated by RTS launch overhead (1 s -> ≈5 s).
	if rows[0].Report.TaskExecution < 2 {
		t.Fatalf("1 s task window %v not inflated by launch delay", rows[0].Report.TaskExecution)
	}
}

func TestFig7cTitanFasterHost(t *testing.T) {
	rows, err := Fig7c(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var supermic, titan *OverheadRow
	for i := range rows {
		switch rows[i].Label {
		case "supermic":
			supermic = &rows[i]
		case "titan":
			titan = &rows[i]
		}
	}
	if supermic == nil || titan == nil {
		t.Fatal("missing CI rows")
	}
	// The paper: Titan runs were driven from a faster host, so EnTK setup
	// and management overheads are lower there.
	if titan.Report.EnTKManagement >= supermic.Report.EnTKManagement {
		t.Fatalf("titan management %v not below supermic %v",
			titan.Report.EnTKManagement, supermic.Report.EnTKManagement)
	}
	if titan.Report.EnTKSetup >= supermic.Report.EnTKSetup {
		t.Fatalf("titan setup %v not below supermic %v",
			titan.Report.EnTKSetup, supermic.Report.EnTKSetup)
	}
}

func TestFig7dStructureSerialization(t *testing.T) {
	rows, err := Fig7d(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Quick mode: 4 pipelines / 4 stages / 4 tasks of 100 s each. The
	// 4-stage structure serializes: its execution window must be ≈4x the
	// single-stage ones.
	multiStage := rows[1].Report.TaskExecution
	concurrent := rows[2].Report.TaskExecution
	if multiStage < 2.5*concurrent {
		t.Fatalf("stages did not serialize: %v vs %v", multiStage, concurrent)
	}
}

func TestFig8WeakScalingQuick(t *testing.T) {
	// A coarse scale keeps real processing (10x slower under -race)
	// negligible against the modelled durations.
	rows, err := Fig8WeakScaling(&Options{Quick: true, Scale: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Staging grows linearly with task count (single stager).
	if rows[1].Report.DataStaging < 1.5*rows[0].Report.DataStaging {
		t.Fatalf("staging not ≈linear: %v -> %v",
			rows[0].Report.DataStaging, rows[1].Report.DataStaging)
	}
	// Task execution stays near the nominal 600 s (weak scaling).
	for _, r := range rows {
		if r.Report.TaskExecution < 550 || r.Report.TaskExecution > 900 {
			t.Fatalf("weak-scaling execution window %v outside [550,900]", r.Report.TaskExecution)
		}
	}
}

func TestFig9StrongScalingQuick(t *testing.T) {
	// Coarse scale for -race tolerance, as in the weak-scaling test.
	rows, err := Fig9StrongScaling(&Options{Quick: true, Scale: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Doubling cores ≈halves the makespan (fixed task count).
	ratio := rows[0].Report.TaskExecution / rows[1].Report.TaskExecution
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("strong-scaling speedup %v not ≈2x", ratio)
	}
}

func TestFig10Quick(t *testing.T) {
	rows, err := Fig10Seismic(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Higher concurrency means shorter makespan.
	if rows[1].ExecTimeS >= rows[0].ExecTimeS {
		t.Fatalf("concurrency did not reduce makespan: %v -> %v",
			rows[0].ExecTimeS, rows[1].ExecTimeS)
	}
	// Below the contention threshold nothing fails.
	for _, r := range rows {
		if r.Failures != 0 {
			t.Fatalf("failures below contention threshold: %+v", r)
		}
		if r.Attempts != r.Tasks {
			t.Fatalf("attempts %d != tasks %d", r.Attempts, r.Tasks)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	res, err := Fig11AnEn(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Repetitions != 3 || len(res.AUAErrors) != 3 || len(res.RandomErrors) != 3 {
		t.Fatalf("result shape: %+v", res)
	}
	for _, e := range append(append([]float64{}, res.AUAErrors...), res.RandomErrors...) {
		if e <= 0 {
			t.Fatalf("non-positive RMSE %v", e)
		}
	}
	if len(res.AUAConvergence) < 2 {
		t.Fatal("no convergence history")
	}
	// Error decreases over iterations for the adaptive method.
	first := res.AUAConvergence[0]
	last := res.AUAConvergence[len(res.AUAConvergence)-1]
	if last >= first {
		t.Fatalf("AUA did not converge: %v -> %v", first, last)
	}
}

func TestAutotuneConcurrencyQuick(t *testing.T) {
	rec, err := AutotuneConcurrency(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode probes 1..8 with the contention threshold at 16: every
	// point is failure-free, so the tuner must pick the maximum.
	if rec.Concurrency != 8 {
		t.Fatalf("recommended %d, want 8", rec.Concurrency)
	}
	if rec.SpeedupVsSerial < 4 {
		t.Fatalf("speedup vs serial = %v, want >= 4", rec.SpeedupVsSerial)
	}
	for _, o := range rec.Observations {
		if o.FailureRate != 0 {
			t.Fatalf("unexpected failures at c=%d", o.Concurrency)
		}
	}
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	RenderOverheads(&sb, "test", []OverheadRow{{Label: "x"}})
	RenderScaling(&sb, "test", []ScalingRow{{Tasks: 1, Cores: 1}, {Tasks: 1, Cores: 2}})
	RenderFig6(&sb, []Fig6Row{{Producers: 1, Consumers: 1, Queues: 1, Tasks: 10, DecodeFailures: 2}})
	RenderBatchSweep(&sb, []BatchScalingRow{{Batch: 64, Tasks: 1, Cores: 1}})
	RenderSchedulerSweep(&sb, []SchedulerScalingRow{{Schedulers: 2, Tasks: 1, Cores: 1}})
	RenderFig10(&sb, []Fig10Row{{Tasks: 1, Concurrency: 1}})
	RenderFig11(&sb, &Fig11Result{Repetitions: 1, Budget: 1, GridPixels: 100,
		AUAErrors: []float64{1}, RandomErrors: []float64{2},
		AUAConvergence: []float64{1}, RandomConvergence: []float64{2}})
	out := sb.String()
	for _, want := range []string{"entk_setup", "speedup", "peak_MB", "attempts", "median",
		"failed to decode", "batch sweep", "scheduler sweep"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
}

// TestFig10LiveQuick holds the live-autotuning ablation to the half of its
// bar that the measurements support: on the quick bursty workload, the
// controller climbing from per-message batching beats that static setting
// by at least 1.2x virtual tasks/s, and it gets there by moving the batch.
func TestFig10LiveQuick(t *testing.T) {
	rows, err := Fig10Live(&Options{Quick: true, Scale: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Fig10LiveRow{}
	for _, r := range rows {
		byLabel[r.Setting] = r
	}
	worst, ok := byLabel["batch=1 scheds=4"]
	auto, ok2 := byLabel["autotuned(start 1/4)"]
	if !ok || !ok2 {
		t.Fatalf("rows %+v lack the static batch-1 or the autotuned row", rows)
	}
	t.Logf("static batch 1: %.2f tasks/s; autotuned: %.2f tasks/s, %d knob changes",
		worst.TasksPerSec, auto.TasksPerSec, auto.KnobChanges)
	if auto.KnobChanges == 0 {
		t.Fatalf("autotuned run committed no knob changes: %+v", auto)
	}
	if auto.TasksPerSec < 1.2*worst.TasksPerSec {
		t.Fatalf("autotuned %.2f tasks/s, want >= 1.2x static batch 1's %.2f", auto.TasksPerSec, worst.TasksPerSec)
	}
	for _, r := range rows {
		if r.FinalSchedulers != 4 {
			t.Errorf("%s ended with %d schedulers, want the 4 it was built with", r.Setting, r.FinalSchedulers)
		}
	}
}
