// Package rts implements the runtime system behind EnTK's black-box RTS
// interface: a pilot-based system with the same module split as
// RADICAL-Pilot (paper §II-D) — a PilotManager that submits pilot jobs
// through the SAGA layer, a UnitManager that feeds tasks to agents through a
// journaled store (the MongoDB stand-in), and an Agent whose scheduler and
// executor place tasks on the pilot's cores, stage their data through the
// shared filesystem and spawn their executables.
package rts

import (
	"fmt"
	"time"
)

// Model holds the RTS's virtual-time cost parameters, calibrated per CI so
// the reproduced overheads land in the bands of paper Fig 7 (RTS overhead
// ≈10–80 s; "tasks set to run for 1 s, run for ≈5 s due to RP overhead";
// RTS tear-down 3–80 s, attributed to Python process termination).
type Model struct {
	// Name identifies the CI this model is calibrated for.
	Name string
	// BootstrapTime is the agent boot time once the pilot is active.
	BootstrapTime time.Duration
	// SubmitBatchCost is charged per Submit call (a DB round trip).
	SubmitBatchCost time.Duration
	// SubmitPerTask is charged per task within a Submit call.
	SubmitPerTask time.Duration
	// LaunchDelay is the per-task execution-environment setup; it inflates
	// the observed task runtime (the 1 s -> ≈5 s effect).
	LaunchDelay time.Duration
	// DispatchLatency serializes task starts in the agent scheduler; it is
	// the cause of the weak-scaling deviation the paper attributes to "the
	// current implementation of the Agent scheduler and the ORTE
	// distributed virtual machine".
	DispatchLatency time.Duration
	// TeardownTime is the RTS tear-down cost.
	TeardownTime time.Duration
	// PreExecCost is charged per pre/post-exec command of a task.
	PreExecCost time.Duration
	// Stagers is the number of modelled data-staging workers, each a
	// serialization watermark that executors book (RP default: 1, which
	// serializes staging — the linear growth in Fig 8).
	Stagers int
}

// Validate reports whether the model is usable.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("rts: model without name")
	}
	for _, d := range []time.Duration{
		m.BootstrapTime, m.SubmitBatchCost, m.SubmitPerTask,
		m.LaunchDelay, m.DispatchLatency, m.TeardownTime, m.PreExecCost,
	} {
		if d < 0 {
			return fmt.Errorf("rts: model %q has negative cost", m.Name)
		}
	}
	if m.Stagers <= 0 {
		return fmt.Errorf("rts: model %q has no stagers", m.Name)
	}
	return nil
}

// models is the per-CI calibration. Tear-down varies across CIs in the
// paper (≈3–80 s) without a systematic pattern; the values below spread the
// same band.
var models = map[string]Model{
	"supermic": {
		Name: "supermic", BootstrapTime: 16 * time.Second,
		SubmitBatchCost: 800 * time.Millisecond, SubmitPerTask: 30 * time.Millisecond,
		LaunchDelay: 3500 * time.Millisecond, DispatchLatency: 20 * time.Millisecond,
		TeardownTime: 42 * time.Second, PreExecCost: 200 * time.Millisecond, Stagers: 1,
	},
	"stampede": {
		Name: "stampede", BootstrapTime: 20 * time.Second,
		SubmitBatchCost: 900 * time.Millisecond, SubmitPerTask: 35 * time.Millisecond,
		LaunchDelay: 3800 * time.Millisecond, DispatchLatency: 22 * time.Millisecond,
		TeardownTime: 61 * time.Second, PreExecCost: 200 * time.Millisecond, Stagers: 1,
	},
	"comet": {
		Name: "comet", BootstrapTime: 14 * time.Second,
		SubmitBatchCost: 700 * time.Millisecond, SubmitPerTask: 28 * time.Millisecond,
		LaunchDelay: 3300 * time.Millisecond, DispatchLatency: 18 * time.Millisecond,
		TeardownTime: 24 * time.Second, PreExecCost: 200 * time.Millisecond, Stagers: 1,
	},
	"titan": {
		Name: "titan", BootstrapTime: 22 * time.Second,
		SubmitBatchCost: 1000 * time.Millisecond, SubmitPerTask: 25 * time.Millisecond,
		LaunchDelay: 3600 * time.Millisecond, DispatchLatency: 25 * time.Millisecond,
		TeardownTime: 74 * time.Second, PreExecCost: 200 * time.Millisecond, Stagers: 1,
	},
}

// ModelForCI returns the calibrated model for a CI, falling back to a
// generic model for unknown resources.
func ModelForCI(ci string) Model {
	if m, ok := models[ci]; ok {
		return m
	}
	return Model{
		Name: ci, BootstrapTime: 15 * time.Second,
		SubmitBatchCost: 800 * time.Millisecond, SubmitPerTask: 30 * time.Millisecond,
		LaunchDelay: 3500 * time.Millisecond, DispatchLatency: 20 * time.Millisecond,
		TeardownTime: 40 * time.Second, PreExecCost: 200 * time.Millisecond, Stagers: 1,
	}
}

// FastModel returns a near-zero-cost model for unit tests.
func FastModel() Model {
	return Model{
		Name: "fast", BootstrapTime: 0, SubmitBatchCost: 0, SubmitPerTask: 0,
		LaunchDelay: 0, DispatchLatency: 0, TeardownTime: 0, PreExecCost: 0, Stagers: 4,
	}
}

// FaultPlan injects failures for the fault-tolerance experiments.
type FaultPlan struct {
	// TaskFailureProb is an unconditional per-attempt failure probability.
	TaskFailureProb float64
	// CrashAfterCompletions kills the whole RTS (Alive -> false) once this
	// many tasks have completed; 0 disables.
	CrashAfterCompletions int
}
