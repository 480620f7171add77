package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/entk"
	"repro/internal/core"
	"repro/internal/vclock"
)

// Fig10LiveRow is one run of the live-autotuning ablation: a bursty
// open-loop workload executed either at a fixed knob setting or under the
// live autotune controller.
type Fig10LiveRow struct {
	// Setting labels the run ("batch=1 scheds=4", "autotuned").
	Setting string
	// Tasks is the total task count of the workload.
	Tasks int
	// VirtualS is the virtual makespan in seconds (epoch to final
	// snapshot), the paper-style cost axis.
	VirtualS float64
	// TasksPerSec is Tasks / VirtualS, the ablation's figure of merit.
	TasksPerSec float64
	// KnobChanges counts controller decisions (0 for static runs).
	KnobChanges uint64
	// FinalBatch is the batch knob at run end; FinalSchedulers is the
	// scheduler pool, fixed when the run is built.
	FinalBatch      int
	FinalSchedulers int
}

// fig10LiveShape sizes the bursty workload.
type fig10LiveShape struct {
	cores     int
	cycles    int
	stormToks int           // tasks per storm stage
	stormDur  time.Duration // storm task duration
	lullTasks int           // tasks per lull stage
	lullDur   time.Duration // lull task duration
}

// burstyPipeline builds the open-loop workload: one pipeline alternating
// storm stages (many tiny tasks — management-bound, the per-message broker
// cost dominates) and lull stages (few long tasks — execution-bound, any
// batch size is equally cheap). A static knob setting is wrong for at least
// one phase; the controller can re-fit each phase as it arrives.
func burstyPipeline(s fig10LiveShape) *entk.Pipeline {
	p := entk.NewPipeline("bursty")
	for c := 0; c < s.cycles; c++ {
		storm := entk.NewStage(fmt.Sprintf("storm%02d", c))
		for i := 0; i < s.stormToks; i++ {
			t := entk.NewTask(fmt.Sprintf("s%02d-t%04d", c, i))
			t.Executable = "sleep"
			t.Duration = s.stormDur
			t.CPUReqs = core.CPUReqs{Processes: 1}
			storm.AddTask(t) //nolint:errcheck
		}
		p.AddStage(storm) //nolint:errcheck
		lull := entk.NewStage(fmt.Sprintf("lull%02d", c))
		for i := 0; i < s.lullTasks; i++ {
			t := entk.NewTask(fmt.Sprintf("l%02d-t%04d", c, i))
			t.Executable = "sleep"
			t.Duration = s.lullDur
			t.CPUReqs = core.CPUReqs{Processes: 1}
			lull.AddTask(t) //nolint:errcheck
		}
		p.AddStage(lull) //nolint:errcheck
	}
	return p
}

// Fig10Live runs the live-autotuning ablation: the bursty workload on the
// paper's xsede-vm host (1 ms per broker message, so batching decisions
// show directly in the virtual makespan) across a grid of static knob
// settings, then under the autotune controller, which steers the batch
// size only — once from the grid's middle point and once from the worst.
// The bar it meets is beating the worst static setting by >= 1.2x tasks/s
// (TestFig10LiveQuick); it does not tie the best one: both autotuned runs
// trail static batch 1024 by 9–13 % in the median, ending at a batch of a
// few hundred (docs/autotune.md has the measured table).
func Fig10Live(opts *Options) ([]Fig10LiveRow, error) {
	scale := opts.scaleOr(time.Millisecond)
	shape := fig10LiveShape{
		cores: 256, cycles: 3,
		stormToks: 1800, stormDur: time.Second,
		lullTasks: 16, lullDur: 10 * time.Second,
	}
	staticBatches := []int{1, 64, 1024}
	staticScheds := []int{1, 4}
	// Two controller runs: from the grid's middle point (the realistic
	// default) and from the worst point (per-message batching — must climb
	// out of it live).
	autoStarts := []int{64, 1}
	if opts.quick() {
		shape = fig10LiveShape{
			cores: 128, cycles: 2,
			stormToks: 400, stormDur: time.Second,
			lullTasks: 8, lullDur: 5 * time.Second,
		}
		staticBatches = []int{1, 256}
		staticScheds = []int{4}
		autoStarts = []int{1}
	}
	var rows []Fig10LiveRow
	for _, b := range staticBatches {
		for _, s := range staticScheds {
			opts.logf("fig10-live: static batch=%d schedulers=%d", b, s)
			row, err := fig10LiveRun(shape, entk.Tuning{BatchSize: b, SchedulerWorkers: s}, false, scale)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
		}
	}
	for _, start := range autoStarts {
		auto := entk.Tuning{
			BatchSize:        start,
			SchedulerWorkers: staticScheds[len(staticScheds)-1],
			Autotune: entk.Autotune{
				Enabled:  true,
				Interval: 500 * time.Millisecond,
				MinBatch: 1,
				MaxBatch: 4096,
			},
		}
		opts.logf("fig10-live: autotuned from batch=%d schedulers=%d", auto.BatchSize, auto.SchedulerWorkers)
		row, err := fig10LiveRun(shape, auto, true, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func fig10LiveRun(shape fig10LiveShape, tun entk.Tuning, autotuned bool, scale time.Duration) (*Fig10LiveRow, error) {
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource: entk.Resource{
			Name:     "comet",
			Cores:    shape.cores,
			Walltime: 4 * time.Hour,
		},
		// The VM host the paper drove XSEDE runs from: 1 ms of virtual
		// management time per broker message makes the batch knob visible
		// in the makespan, deterministically.
		HostName:  "xsede-vm",
		TimeScale: scale,
		Seed:      1018,
		Tuning:    tun,
	})
	if err != nil {
		return nil, err
	}
	if err := am.AddPipelines(burstyPipeline(shape)); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	run, err := am.Start(ctx)
	if err != nil {
		return nil, fmt.Errorf("fig10-live (%s): %w", settingLabel(tun, autotuned), err)
	}
	if err := run.Wait(); err != nil {
		return nil, fmt.Errorf("fig10-live (%s): %w", settingLabel(tun, autotuned), err)
	}
	snap := run.Snapshot()
	if snap.TasksDone != snap.TasksTotal {
		return nil, fmt.Errorf("fig10-live (%s): %d/%d tasks done",
			settingLabel(tun, autotuned), snap.TasksDone, snap.TasksTotal)
	}
	virtual := snap.VTime.Sub(vclock.Epoch).Seconds()
	row := &Fig10LiveRow{
		Setting:         settingLabel(tun, autotuned),
		Tasks:           snap.TasksTotal,
		VirtualS:        virtual,
		KnobChanges:     snap.KnobChanges,
		FinalBatch:      snap.LiveBatchSize,
		FinalSchedulers: snap.LiveSchedulers,
	}
	if virtual > 0 {
		row.TasksPerSec = float64(snap.TasksTotal) / virtual
	}
	return row, nil
}

// Fig10LiveOne runs a single knob setting over the quick-mode bursty
// workload — the root benchmark harness's entry point, so the ablation's
// sub-benchmarks (static worst, static best, autotuned) each get their own
// regression-gated number.
func Fig10LiveOne(opts *Options, tun entk.Tuning, autotuned bool) (*Fig10LiveRow, error) {
	shape := fig10LiveShape{
		cores: 128, cycles: 2,
		stormToks: 400, stormDur: time.Second,
		lullTasks: 8, lullDur: 5 * time.Second,
	}
	return fig10LiveRun(shape, tun, autotuned, opts.scaleOr(time.Millisecond))
}

// settingLabel names one ablation run.
func settingLabel(tun entk.Tuning, autotuned bool) string {
	if autotuned {
		return fmt.Sprintf("autotuned(start %d/%d)", tun.BatchSize, tun.SchedulerWorkers)
	}
	return fmt.Sprintf("batch=%d scheds=%d", tun.BatchSize, tun.SchedulerWorkers)
}
