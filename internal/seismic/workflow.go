package seismic

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Kernel is the "specfem" workload executable. With compute enabled it runs
// a small real forward simulation; it always occupies its cores for the
// task's nominal duration, matching how the production Specfem runs dominate
// their 384-node allocations.
type Kernel struct{}

// Name implements workload.Kernel.
func (Kernel) Name() string { return "specfem" }

// Run implements workload.Kernel.
func (Kernel) Run(ctx context.Context, spec workload.Spec, env *workload.Env) (workload.Result, error) {
	if env.Compute {
		m := NewModel(48, 48, 10, 1500)
		m.AddGaussianAnomaly(24, 24, 6, 150)
		src := Source{IX: 24, IZ: 8, Freq: 12}
		recs := []Receiver{{IX: 8, IZ: 4}, {IX: 40, IZ: 4}}
		cfg := SimConfig{NT: 120, DT: 0.004, DampWidth: 6}
		if _, err := Forward(m, src, recs, cfg); err != nil {
			return workload.Result{ExitCode: 1, Output: err.Error()}, nil
		}
	}
	if spec.Duration > 0 {
		if env.Cancel == nil {
			env.Clock.Sleep(spec.Duration)
		} else {
			select {
			case <-env.Clock.After(spec.Duration):
			case <-env.Cancel:
				return workload.Result{ExitCode: 143, Output: "terminated"}, nil
			}
		}
	}
	return workload.Result{ExitCode: 0, Output: "specfem: forward simulation complete"}, nil
}

// ForwardTaskParams sizes one production forward-simulation task as the
// paper describes: 384 Titan nodes (6,144 cores), ≈180 s at full
// concurrency, 40 MB of input data, and heavy sustained I/O on the shared
// filesystem.
type ForwardTaskParams struct {
	Cores      int
	Duration   time.Duration
	InputBytes int64
	IOLoad     float64
}

// ProductionForwardParams returns the paper's task sizing.
func ProductionForwardParams() ForwardTaskParams {
	return ForwardTaskParams{
		Cores:      6144,
		Duration:   180 * time.Second,
		InputBytes: 40 << 20,
		IOLoad:     1.0,
	}
}

// NewForwardTask builds the EnTK task for one earthquake's forward
// simulation.
func NewForwardTask(event int, p ForwardTaskParams) *core.Task {
	t := core.NewTask(fmt.Sprintf("forward-eq%04d", event))
	t.Executable = "specfem"
	t.CPUReqs = core.CPUReqs{Processes: p.Cores}
	t.Duration = p.Duration
	t.IOLoad = p.IOLoad
	t.InputStaging = []core.StagingDirective{{
		Source: fmt.Sprintf("eq%04d/DATA", event),
		Target: "DATA",
		Action: core.StagingCopy,
		Bytes:  p.InputBytes,
	}}
	return t
}

// NewForwardEnsemble builds the Fig 10 experiment's application: one
// pipeline per earthquake, each with a single forward-simulation stage.
// Executing N pipelines on a pilot of concurrency*Cores cores yields the
// paper's concurrency sweep without changing any task.
func NewForwardEnsemble(events int, p ForwardTaskParams) []*core.Pipeline {
	pipes := make([]*core.Pipeline, 0, events)
	for e := 0; e < events; e++ {
		pipe := core.NewPipeline(fmt.Sprintf("eq%04d", e))
		stage := core.NewStage("forward")
		stage.AddTask(NewForwardTask(e, p)) //nolint:errcheck
		pipe.AddStage(stage)                //nolint:errcheck
		pipes = append(pipes, pipe)
	}
	return pipes
}
