// Live-autotuning benchmarks: the disabled/enabled overhead contract and
// the bursty-workload ablation. Both are in the BENCH_GATE regression
// subset (docs/ci.md, docs/autotune.md). The file name sorts after every
// other *_bench_test.go on purpose: these run whole applications, and
// running them before the broker micro-benchmarks shifts those numbers on
// a loaded machine — the gate's measurement order must stay stable across
// baselines.
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/entk"
	"repro/internal/experiments"
)

// BenchmarkAutotuneOverhead measures the controller's steady-state cost on
// a run whose knobs never move. "off" is the default path: a collapsed-
// bounds handle and no controller goroutine. "on-steady" enables the
// controller with bounds collapsed onto the starting point, so it samples
// the run's counters on every interval but can never commit a change —
// pure control-loop overhead. The contract (docs/autotune.md): on-steady
// within 3% of off.
func BenchmarkAutotuneOverhead(b *testing.B) {
	const tasks = 1024
	for _, mode := range []struct {
		name string
		auto entk.Autotune
	}{
		{"off", entk.Autotune{}},
		{"on-steady", entk.Autotune{
			Enabled:  true,
			MinBatch: benchBatchSize,
			MaxBatch: benchBatchSize,
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				am, err := entk.NewAppManager(entk.AppConfig{
					Resource:  entk.Resource{Name: "supermic", Cores: tasks, Walltime: 72 * time.Hour},
					TimeScale: 2 * time.Microsecond,
					HostName:  "null",
					Tuning: entk.Tuning{
						BatchSize:        benchBatchSize,
						SchedulerWorkers: 1,
						Autotune:         mode.auto,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				pipe := entk.NewPipeline("bench")
				stage := entk.NewStage("s")
				for k := 0; k < tasks; k++ {
					t := entk.NewTask(fmt.Sprintf("t%04d", k))
					t.Executable = "sleep"
					t.Duration = time.Second
					stage.AddTask(t) //nolint:errcheck
				}
				pipe.AddStage(stage) //nolint:errcheck
				if err := am.AddPipelines(pipe); err != nil {
					b.Fatal(err)
				}
				if err := am.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				if snap := am.Snapshot(); snap.KnobChanges != 0 {
					b.Fatalf("collapsed-bounds controller committed %d changes", snap.KnobChanges)
				}
			}
			b.ReportMetric(float64(tasks*b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// BenchmarkAblationAutotune runs the quick-mode bursty workload of
// experiment 14 at three operating points: the worst static setting
// (per-message batching), the best static setting, and the controller
// climbing live from the worst. Wall time is the gated number; the
// virtual-time tasks/s figure of merit is reported as a metric.
func BenchmarkAblationAutotune(b *testing.B) {
	opts := &experiments.Options{Quick: true, Scale: 200 * time.Microsecond}
	for _, setting := range []struct {
		name string
		tun  entk.Tuning
		auto bool
	}{
		{"static-worst", entk.Tuning{BatchSize: 1, SchedulerWorkers: 1}, false},
		{"static-best", entk.Tuning{BatchSize: 256, SchedulerWorkers: 1}, false},
		{"autotuned", entk.Tuning{
			BatchSize:        1,
			SchedulerWorkers: 1,
			Autotune: entk.Autotune{
				Enabled:  true,
				Interval: 500 * time.Millisecond,
				MinBatch: 1,
				MaxBatch: 4096,
			},
		}, true},
	} {
		b.Run(setting.name, func(b *testing.B) {
			var virtualTasksPerSec float64
			for i := 0; i < b.N; i++ {
				row, err := experiments.Fig10LiveOne(opts, setting.tun, setting.auto)
				if err != nil {
					b.Fatal(err)
				}
				if setting.auto && row.KnobChanges == 0 {
					b.Fatal("autotuned run committed no knob changes")
				}
				virtualTasksPerSec = row.TasksPerSec
			}
			b.ReportMetric(virtualTasksPerSec, "vtasks/s")
		})
	}
}
