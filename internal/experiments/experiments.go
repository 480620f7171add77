// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). Each Fig* function is one experiment driver, returning
// structured rows that cmd/entk-experiments renders and bench_test.go
// reports. EXPERIMENTS.md records paper-vs-measured per experiment.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/entk"
	"repro/internal/core"
	"repro/internal/profiler"
)

// Options control experiment execution.
type Options struct {
	// Scale is the wall cost of one virtual second. Larger scales reduce
	// measurement noise from real processing; smaller scales run faster.
	Scale time.Duration
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
	// Quick shrinks experiment sizes for smoke tests and benchmarks.
	Quick bool
}

func (o *Options) scaleOr(d time.Duration) time.Duration {
	if o != nil && o.Scale > 0 {
		return o.Scale
	}
	return d
}

func (o *Options) logf(format string, args ...interface{}) {
	if o != nil && o.Verbose != nil {
		fmt.Fprintf(o.Verbose, format+"\n", args...)
	}
}

func (o *Options) quick() bool { return o != nil && o.Quick }

// OverheadRow is one bar group of Fig 7: a labelled run's overhead
// decomposition in virtual seconds.
type OverheadRow struct {
	Label  string
	Report profiler.Report
}

// pstSpec describes one overhead-experiment application per Table I.
type pstSpec struct {
	CI         string
	Pipelines  int
	Stages     int
	Tasks      int
	Executable string
	Duration   time.Duration
	Staged     bool // stage the mdrun-style input files
	// Batch, when non-zero, sets entk.AppConfig.BatchSize — the broker
	// batched-hot-path knob the sweeps vary (1 restores the per-message
	// path).
	Batch int
}

// gromacsStaging returns the 4-file input set of the scaling experiments
// (3 soft links and one 550 KB copy per task).
func gromacsStaging() []core.StagingDirective {
	return []core.StagingDirective{
		{Source: "topol.tpr", Target: "topol.tpr", Action: core.StagingCopy, Bytes: 550 * 1024},
		{Source: "grompp.mdp", Target: "grompp.mdp", Action: core.StagingLink},
		{Source: "conf.gro", Target: "conf.gro", Action: core.StagingLink},
		{Source: "topol.top", Target: "topol.top", Action: core.StagingLink},
	}
}

// runPST executes one Table I configuration and returns its overheads.
func runPST(spec pstSpec, scale time.Duration) (profiler.Report, error) {
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource: entk.Resource{
			Name:     spec.CI,
			Cores:    spec.Tasks * spec.Pipelines,
			Walltime: 2 * time.Hour,
		},
		TimeScale:   scale,
		TaskRetries: 2,
		Tuning:      entk.Tuning{BatchSize: spec.Batch},
	})
	if err != nil {
		return profiler.Report{}, err
	}
	for p := 0; p < spec.Pipelines; p++ {
		pipe := core.NewPipeline(fmt.Sprintf("p%02d", p))
		for s := 0; s < spec.Stages; s++ {
			stage := core.NewStage(fmt.Sprintf("s%02d", s))
			for k := 0; k < spec.Tasks; k++ {
				t := core.NewTask(fmt.Sprintf("t%02d", k))
				t.Executable = spec.Executable
				t.Duration = spec.Duration
				t.CPUReqs = core.CPUReqs{Processes: 1}
				if spec.Staged {
					t.InputStaging = gromacsStaging()
				}
				stage.AddTask(t) //nolint:errcheck
			}
			pipe.AddStage(stage) //nolint:errcheck
		}
		if err := am.AddPipelines(pipe); err != nil {
			return profiler.Report{}, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	run, err := am.Start(ctx)
	if err != nil {
		return profiler.Report{}, err
	}
	if err := run.Wait(); err != nil {
		return profiler.Report{}, err
	}
	// Completion accounting via the run handle instead of re-walking the
	// PST tree: an overhead figure from a partially completed run would be
	// silently wrong, so the harness cross-checks the snapshot.
	if snap := run.Snapshot(); snap.TasksDone != snap.TasksTotal {
		return profiler.Report{}, fmt.Errorf(
			"experiments: PST run finished with %d/%d tasks done", snap.TasksDone, snap.TasksTotal)
	}
	return am.Report(), nil
}

// Fig7a reproduces Experiment 1: overheads vs task executable (SuperMIC,
// PST (1,1,16), mdrun and sleep at 300 s).
func Fig7a(opts *Options) ([]OverheadRow, error) {
	scale := opts.scaleOr(2 * time.Millisecond)
	dur := 300 * time.Second
	tasks := 16
	if opts.quick() {
		dur, tasks = 30*time.Second, 4
	}
	var rows []OverheadRow
	for _, exe := range []struct {
		name   string
		staged bool
	}{{"mdrun", true}, {"sleep", false}} {
		opts.logf("exp1: executable=%s", exe.name)
		rep, err := runPST(pstSpec{
			CI: "supermic", Pipelines: 1, Stages: 1, Tasks: tasks,
			Executable: exe.name, Duration: dur, Staged: exe.staged,
		}, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverheadRow{Label: exe.name, Report: rep})
	}
	return rows, nil
}

// Fig7b reproduces Experiment 2: overheads vs task duration (SuperMIC,
// (1,1,16), sleep at 1/10/100/1000 s).
func Fig7b(opts *Options) ([]OverheadRow, error) {
	scale := opts.scaleOr(2 * time.Millisecond)
	durations := []time.Duration{time.Second, 10 * time.Second, 100 * time.Second, 1000 * time.Second}
	tasks := 16
	if opts.quick() {
		durations = durations[:2]
		tasks = 4
	}
	var rows []OverheadRow
	for _, d := range durations {
		opts.logf("exp2: duration=%v", d)
		rep, err := runPST(pstSpec{
			CI: "supermic", Pipelines: 1, Stages: 1, Tasks: tasks,
			Executable: "sleep", Duration: d,
		}, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverheadRow{Label: fmt.Sprintf("%.0fs", d.Seconds()), Report: rep})
	}
	return rows, nil
}

// Fig7c reproduces Experiment 3: overheads vs CI (sleep 100 s, (1,1,16), on
// SuperMIC, Stampede, Comet and Titan).
func Fig7c(opts *Options) ([]OverheadRow, error) {
	scale := opts.scaleOr(2 * time.Millisecond)
	cis := []string{"supermic", "stampede", "comet", "titan"}
	tasks := 16
	if opts.quick() {
		cis = []string{"supermic", "titan"}
		tasks = 4
	}
	var rows []OverheadRow
	for _, ci := range cis {
		opts.logf("exp3: ci=%s", ci)
		rep, err := runPST(pstSpec{
			CI: ci, Pipelines: 1, Stages: 1, Tasks: tasks,
			Executable: "sleep", Duration: 100 * time.Second,
		}, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverheadRow{Label: ci, Report: rep})
	}
	return rows, nil
}

// Fig7d reproduces Experiment 4: overheads vs application structure
// (SuperMIC, sleep 100 s, PST (16,1,1), (1,16,1), (1,1,16)).
func Fig7d(opts *Options) ([]OverheadRow, error) {
	scale := opts.scaleOr(2 * time.Millisecond)
	structures := []struct {
		label   string
		p, s, t int
	}{
		{"P-16,S-1,T-1", 16, 1, 1},
		{"P-1,S-16,T-1", 1, 16, 1},
		{"P-1,S-1,T-16", 1, 1, 16},
	}
	if opts.quick() {
		structures = []struct {
			label   string
			p, s, t int
		}{
			{"P-4,S-1,T-1", 4, 1, 1},
			{"P-1,S-4,T-1", 1, 4, 1},
			{"P-1,S-1,T-4", 1, 1, 4},
		}
	}
	var rows []OverheadRow
	for _, st := range structures {
		opts.logf("exp4: structure=%s", st.label)
		rep, err := runPST(pstSpec{
			CI: "supermic", Pipelines: st.p, Stages: st.s, Tasks: st.t,
			Executable: "sleep", Duration: 100 * time.Second,
		}, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverheadRow{Label: st.label, Report: rep})
	}
	return rows, nil
}

// ScalingRow is one point of Figs 8-9.
type ScalingRow struct {
	Tasks  int
	Cores  int
	Report profiler.Report
}

func runScaling(tasks, cores int, scale time.Duration) (profiler.Report, error) {
	return runScalingBatch(tasks, cores, 0, 0, scale)
}

// runScalingBatch is runScaling with an explicit broker batch size (0 =
// the stack default, 1 = the per-message path) and agent scheduler count
// (0 = the RTS default, 1 = the strict-FIFO single-scheduler agent).
func runScalingBatch(tasks, cores, batch, schedulers int, scale time.Duration) (profiler.Report, error) {
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource: entk.Resource{
			Name:     "titan",
			Cores:    cores,
			Walltime: 2 * time.Hour, // Titan's queue policy cap, as in the paper
		},
		TimeScale:   scale,
		TaskRetries: 2,
		Tuning:      entk.Tuning{BatchSize: batch, SchedulerWorkers: schedulers},
	})
	if err != nil {
		return profiler.Report{}, err
	}
	pipe := core.NewPipeline("scaling")
	stage := core.NewStage("mdrun")
	for i := 0; i < tasks; i++ {
		t := core.NewTask(fmt.Sprintf("mdrun-%05d", i))
		t.Executable = "mdrun"
		t.Duration = 600 * time.Second
		t.CPUReqs = core.CPUReqs{Processes: 1}
		t.InputStaging = gromacsStaging()
		stage.AddTask(t) //nolint:errcheck
	}
	pipe.AddStage(stage) //nolint:errcheck
	if err := am.AddPipelines(pipe); err != nil {
		return profiler.Report{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	run, err := am.Start(ctx)
	if err != nil {
		return profiler.Report{}, err
	}
	if err := run.Wait(); err != nil {
		return profiler.Report{}, err
	}
	if snap := run.Snapshot(); snap.TasksDone != tasks {
		return profiler.Report{}, fmt.Errorf(
			"experiments: scaling run finished with %d/%d tasks done", snap.TasksDone, tasks)
	}
	return am.Report(), nil
}

// Fig8WeakScaling reproduces the weak-scaling experiment: 512..4096 1-core
// 600 s mdrun tasks on as many cores.
func Fig8WeakScaling(opts *Options) ([]ScalingRow, error) {
	scale := opts.scaleOr(time.Millisecond)
	sizes := []int{512, 1024, 2048, 4096}
	if opts.quick() {
		sizes = []int{64, 128}
	}
	var rows []ScalingRow
	for _, n := range sizes {
		opts.logf("weak scaling: %d tasks / %d cores", n, n)
		rep, err := runScaling(n, n, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{Tasks: n, Cores: n, Report: rep})
	}
	return rows, nil
}

// BatchScalingRow is one point of the batched Fig 8-style sweep: a weak-
// scaling run executed with a given broker BatchSize.
type BatchScalingRow struct {
	Batch  int
	Tasks  int
	Cores  int
	Report profiler.Report
}

// Fig8BatchSweep reproduces the weak-scaling overhead curve across the
// broker BatchSize grid, wiring entk.AppConfig.BatchSize into the sweep:
// batch 1 is the paper's per-message messaging layer, larger batches move
// the same workflow over the batched sharded hot path. Comparing rows of
// equal task count isolates what broker amortization does to EnTK
// management overhead (paper Figs 7-8).
func Fig8BatchSweep(opts *Options) ([]BatchScalingRow, error) {
	scale := opts.scaleOr(time.Millisecond)
	batches := []int{1, 64, 1024}
	sizes := []int{512, 1024}
	if opts.quick() {
		batches = []int{1, 64}
		sizes = []int{64, 128}
	}
	var rows []BatchScalingRow
	for _, batch := range batches {
		for _, n := range sizes {
			opts.logf("batch sweep: batch=%d, %d tasks / %d cores", batch, n, n)
			rep, err := runScalingBatch(n, n, batch, 0, scale)
			if err != nil {
				return nil, err
			}
			rows = append(rows, BatchScalingRow{Batch: batch, Tasks: n, Cores: n, Report: rep})
		}
	}
	return rows, nil
}

// SchedulerScalingRow is one point of the scheduler-concurrency sweep: a
// weak-scaling run executed with a given agent scheduler count.
type SchedulerScalingRow struct {
	Schedulers int
	Tasks      int
	Cores      int
	Report     profiler.Report
}

// Fig8SchedulerSweep re-measures the weak-scaling overhead curve across the
// agent's scheduler-concurrency knob: schedulers=1 is the paper's serial
// pilot agent (the Fig 8 dispatch bottleneck), larger counts drain the
// sharded task store concurrently. Comparing rows of equal task count
// isolates what the multi-scheduler agent does to RTS overhead — the
// consumer-scaling curve the ROADMAP wants re-measured on real multi-core
// hardware.
func Fig8SchedulerSweep(opts *Options) ([]SchedulerScalingRow, error) {
	scale := opts.scaleOr(time.Millisecond)
	schedulers := []int{1, 2, 4}
	sizes := []int{512, 1024}
	if opts.quick() {
		schedulers = []int{1, 2}
		sizes = []int{64}
	}
	var rows []SchedulerScalingRow
	for _, scheds := range schedulers {
		for _, n := range sizes {
			opts.logf("scheduler sweep: schedulers=%d, %d tasks / %d cores", scheds, n, n)
			rep, err := runScalingBatch(n, n, 0, scheds, scale)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SchedulerScalingRow{Schedulers: scheds, Tasks: n, Cores: n, Report: rep})
		}
	}
	return rows, nil
}

// Fig9StrongScaling reproduces the strong-scaling experiment: 8,192 1-core
// 600 s mdrun tasks on 1,024 / 2,048 / 4,096 cores.
func Fig9StrongScaling(opts *Options) ([]ScalingRow, error) {
	scale := opts.scaleOr(time.Millisecond)
	tasks := 8192
	coreCounts := []int{1024, 2048, 4096}
	if opts.quick() {
		tasks = 512
		coreCounts = []int{128, 256}
	}
	var rows []ScalingRow
	for _, c := range coreCounts {
		opts.logf("strong scaling: %d tasks / %d cores", tasks, c)
		rep, err := runScaling(tasks, c, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{Tasks: tasks, Cores: c, Report: rep})
	}
	return rows, nil
}
