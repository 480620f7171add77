// Package entk is the public API of this Go reproduction of the Ensemble
// Toolkit (EnTK) from "Harnessing the Power of Many: Extensible Toolkit for
// Scalable Ensemble Applications" (Balasubramanian et al., IPDPS 2018).
//
// Applications are described with the paper's PST model — Pipelines of
// Stages of Tasks — and handed to an AppManager for execution on a
// (simulated) computing infrastructure through a pluggable runtime system:
//
//	p := entk.NewPipeline("md")
//	s := entk.NewStage("sim")
//	for i := 0; i < 16; i++ {
//		t := entk.NewTask("replica")
//		t.Executable = "mdrun"
//		t.Duration = 600 * time.Second
//		s.AddTask(t)
//	}
//	p.AddStage(s)
//
//	am, _ := entk.NewAppManager(entk.AppConfig{Resource: entk.Resource{
//		Name: "titan", Cores: 512, Walltime: 2 * time.Hour,
//	}})
//	am.AddPipelines(p)
//
//	run, err := am.Start(context.Background())
//	if err != nil {
//		log.Fatal(err)
//	}
//	events, cancel := run.Events(entk.EventFilter{
//		Kinds: []entk.EventKind{entk.EventStage, entk.EventPipeline},
//	})
//	go func() {
//		for ev := range events {
//			log.Printf("%s %s: %s -> %s", ev.Kind, ev.Name, ev.From, ev.To)
//		}
//	}()
//	err = run.Wait()
//	cancel()
//
// Start returns a run handle that exposes the live execution: Wait blocks
// to completion, Snapshot reports per-entity progress and pilot
// utilization, Events streams typed state transitions, Pause/Resume gate
// individual pipelines, and Cancel/CancelPipeline abort the run or one
// pipeline. Run(ctx) remains as a blocking Start+Wait convenience. An
// AppManager is single-shot: a second Start or Run returns ErrAlreadyRan.
//
// All pipelines execute concurrently; stages within a pipeline execute
// sequentially; tasks within a stage execute concurrently. Stage.PostExec
// hooks support adaptive workflows that extend themselves at runtime.
package entk

import (
	"context"
	"errors"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/hostmodel"
	"repro/internal/hpc"
	"repro/internal/profiler"
	"repro/internal/remoterts"
	"repro/internal/rts"
	"repro/internal/statedb"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Re-exported PST entities. The types are shared with the internal engine,
// so values constructed here flow through the whole stack unchanged.
type (
	// Task is an abstraction of a computational task: executable, software
	// environment and data dependences.
	Task = core.Task
	// Stage is a set of tasks that can execute concurrently.
	Stage = core.Stage
	// Pipeline is a list of stages that execute sequentially.
	Pipeline = core.Pipeline
	// StagingDirective describes one input or output data movement.
	StagingDirective = core.StagingDirective
	// CPUReqs describes a task's CPU needs.
	CPUReqs = core.CPUReqs
	// GPUReqs describes a task's GPU needs.
	GPUReqs = core.GPUReqs
	// StateStore is the external-database hook for transactional state
	// updates (paper §II-B4).
	StateStore = core.StateStore
	// TaskState, StageState and PipelineState are entity lifecycle states.
	TaskState = core.TaskState
	// StageState is a stage's lifecycle state.
	StageState = core.StageState
	// PipelineState is a pipeline's lifecycle state.
	PipelineState = core.PipelineState
	// Event is one committed lifecycle transition, streamed by Run.Events.
	Event = core.Event
	// EventKind classifies events by entity (task, stage, pipeline).
	EventKind = core.EventKind
	// EventFilter selects which events a subscription receives and sizes
	// its bounded buffer (see docs/api.md for the backpressure contract).
	EventFilter = core.EventFilter
	// EventSub is a live subscription handle with a Dropped counter.
	EventSub = core.EventSub
	// Progress is the point-in-time run view returned by Run.Snapshot.
	Progress = core.Progress
	// PipelineProgress is one pipeline's slice of a Progress snapshot.
	PipelineProgress = core.PipelineProgress
	// Utilization reports pilot occupancy inside a Progress snapshot.
	Utilization = core.Utilization
	// StoreStats reports the RTS task store's shard/scheduler counters
	// inside a Progress snapshot.
	StoreStats = core.StoreStats
	// EventStream is a socket-borne event feed — Client.Events over entkd,
	// or an attach to a run's remote event server — ending with the
	// server's drop count.
	EventStream = remoterts.EventStream
	// CancelError is the error a run finishes with after Run.Cancel.
	CancelError = core.CancelError
	// DurabilityStats reports the crash-recovery subsystem inside a
	// Progress snapshot (nil for non-durable runs).
	DurabilityStats = core.DurabilityStats
	// RecoveryInfo summarizes what a resumed run reconstructed at startup.
	RecoveryInfo = core.RecoveryInfo
)

// Event kinds.
const (
	EventTask     = core.EventTask
	EventStage    = core.EventStage
	EventPipeline = core.EventPipeline
	// EventKnob is an autotune controller decision (Name names the knob,
	// From/To its values as decimal strings, UID the rule that fired).
	EventKnob = core.EventKnob
)

// ErrAlreadyRan is returned by Start (and Run) when the AppManager has
// already executed; AppManagers are single-shot.
var ErrAlreadyRan = core.ErrAlreadyRan

// Re-exported state constants (the commonly inspected ones).
const (
	TaskDone          = core.TaskDone
	TaskFailed        = core.TaskFailed
	TaskCanceled      = core.TaskCanceled
	StageInitial      = core.StageInitial
	StageDone         = core.StageDone
	StageCanceled     = core.StageCanceled
	PipelineDone      = core.PipelineDone
	PipelineSuspended = core.PipelineSuspended
	PipelineCanceled  = core.PipelineCanceled
)

// Staging actions.
const (
	StagingCopy     = core.StagingCopy
	StagingLink     = core.StagingLink
	StagingMove     = core.StagingMove
	StagingTransfer = core.StagingTransfer
)

// NewTask returns a fresh task; set Executable, Duration, CPUReqs and
// staging directives before adding it to a stage.
func NewTask(name string) *Task { return core.NewTask(name) }

// NewStage returns a fresh stage.
func NewStage(name string) *Stage { return core.NewStage(name) }

// NewPipeline returns a fresh pipeline.
func NewPipeline(name string) *Pipeline { return core.NewPipeline(name) }

// StateDB is the bundled external state database (the stack's MongoDB
// stand-in). It satisfies StateStore and additionally exposes the full
// commit history for live or postmortem analysis.
type StateDB = statedb.DB

// NewStateDB returns an empty external state database for
// AppConfig.StateStore.
func NewStateDB() *StateDB { return statedb.New() }

// Resource describes the acquisition request for a computing
// infrastructure: which CI, how many cores, for how long.
type Resource struct {
	// Name is a catalogued CI: "supermic", "stampede", "comet", "titan".
	Name string
	// Cores is the pilot size.
	Cores int
	// GPUs is the pilot's GPU allocation; when 0 it defaults to one GPU
	// per allocated node on GPU-equipped CIs (Titan). The agent schedules
	// GPU tasks against it exactly as it schedules cores.
	GPUs int
	// Walltime of the pilot job.
	Walltime time.Duration
	// Queue and Project pass through to the batch system.
	Queue   string
	Project string
}

func (r Resource) desc() core.ResourceDesc {
	return core.ResourceDesc{
		Resource: r.Name, Cores: r.Cores, GPUs: r.GPUs,
		Walltime: r.Walltime, Queue: r.Queue, Project: r.Project,
	}
}

// AppConfig configures an AppManager.
type AppConfig struct {
	// Resource is the CI request. Required.
	Resource Resource
	// Tuning consolidates the per-run performance knobs (batching,
	// sharding, scheduler concurrency, snapshot cadence); the zero value
	// selects every documented default.
	Tuning
	// TimeScale is the wall cost of one virtual second (default 1 ms).
	TimeScale time.Duration
	// TaskRetries is the automatic resubmission budget per failed task.
	TaskRetries int
	// RTSRestarts bounds RTS restarts after runtime-system failures.
	RTSRestarts int
	// JournalDir enables the full durability mode (docs/recovery.md): a
	// segmented state journal, periodic statedb snapshots with watermark
	// compaction, and RTS submission audit records, all in one directory. A
	// run crashed mid-flight is continued with AppManager.Resume on the same
	// directory — completed tasks are not re-executed.
	JournalDir string
	// StateStore mirrors every state transition to an external database
	// (paper §II-B4); see NewStateDB for the bundled implementation. A
	// restarted application reacquires completed-task states from it.
	StateStore StateStore
	// Compute enables real kernel computation inside task executables.
	Compute bool
	// Seed drives all stochastic models (failure sampling).
	Seed int64
	// HostName selects the host model running EnTK ("xsede-vm",
	// "titan-login", "null"). Default: chosen from the resource per the
	// paper's setup.
	HostName string
	// Kernels are extra workload kernels to register (use-case packages
	// contribute Specfem and CAnalogs this way).
	Kernels []workload.Kernel
	// FSSpec overrides the shared-filesystem model (default: OLCF Lustre
	// on titan, generic XSEDE elsewhere).
	FSSpec *fsim.Spec
	// QueueWait, when positive, makes the pilot wait in the batch queue.
	QueueWait time.Duration
	// ExtraResources requests additional pilots on other CIs. When
	// present, tasks are mapped dynamically across all pilots — pin a task
	// with Tags["resource"] = CI name, or leave it untagged for
	// least-loaded placement. This is the paper's future-work capability
	// (i), "dynamic mapping of tasks onto heterogeneous resources", and
	// serves the seismic use case's need to interleave leadership-scale
	// simulation with cluster-scale analysis (§III-A).
	ExtraResources []Resource
	// RemoteAgents, when non-empty, replaces the in-process runtime system
	// with a networked one: tasks are shipped over internal/transport
	// frames to entk-agent processes listening on these addresses
	// ("tcp:host:port", "unix:/path"). Each agent hosts its own pilot RTS
	// and simulated CI; the manager-side proxy stripes batches across the
	// connected agents and folds their results and utilization reports
	// back into the run (docs/remote.md). Mutually exclusive with
	// ExtraResources.
	RemoteAgents []string
}

// AppManager drives one ensemble application: it owns the simulated CI, the
// SAGA session, the pilot RTS and the EnTK core, wired exactly as in the
// paper's architecture diagram.
type AppManager struct {
	inner   *core.AppManager
	clock   vclock.Clock
	machine *rts.Machine // torn down by the run handle Start returns
}

// NewAppManager assembles the full stack for cfg.
func NewAppManager(cfg AppConfig) (*AppManager, error) {
	if cfg.Resource.Name == "" {
		return nil, errors.New("entk: resource name required")
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = time.Millisecond
	}
	if len(cfg.RemoteAgents) > 0 && len(cfg.ExtraResources) > 0 {
		return nil, errors.New("entk: RemoteAgents and ExtraResources are mutually exclusive")
	}
	// One resolved-tuning struct feeds both core.Config and rts.Config, so
	// the live knob handle has a single source of truth.
	tun, err := cfg.resolveTuning()
	if err != nil {
		return nil, err
	}
	clock := vclock.NewScaled(cfg.TimeScale)

	requests := []core.ResourceDesc{cfg.Resource.desc()}
	for _, res := range cfg.ExtraResources {
		requests = append(requests, res.desc())
	}
	// The primary CI and any extra ones (heterogeneous execution) behind one
	// SAGA session, whose transfer service enacts staging directives over
	// per-protocol adapters (§II-D).
	machine, err := rts.NewMachine(rts.MachineConfig{
		Clock: clock, Seed: cfg.Seed, Resources: requests,
		FSSpec: cfg.FSSpec, QueueWait: cfg.QueueWait,
	})
	if err != nil {
		return nil, err
	}

	hostName := cfg.HostName
	var host *hostmodel.Model
	if hostName == "" {
		host = hostmodel.ForCI(cfg.Resource.Name)
	} else {
		host, err = hostmodel.Lookup(hostName)
		if err != nil {
			machine.Close()
			return nil, err
		}
	}

	registry := workload.NewRegistry()
	for _, k := range cfg.Kernels {
		if err := registry.Register(k); err != nil {
			machine.Close()
			return nil, err
		}
	}

	coreCfg := core.Config{
		Clock:       clock,
		Host:        host,
		JournalDir:  cfg.JournalDir,
		StateStore:  cfg.StateStore,
		TaskRetries: cfg.TaskRetries,
		RTSRestarts: cfg.RTSRestarts,
	}
	tun.applyCore(&coreCfg)
	am, err := core.NewAppManager(coreCfg)
	if err != nil {
		machine.Close()
		return nil, err
	}
	am.SetResource(machine.Resources[0])
	baseRTS := rts.Config{
		Clock:    clock,
		Session:  machine.Session,
		Registry: registry,
		FS:       machine.FS,
		Prof:     am.Profiler(),
		Compute:  cfg.Compute,
		Seed:     cfg.Seed,
	}
	tun.applyRTS(&baseRTS)
	if cfg.JournalDir != "" {
		// Durable mode audits RTS submissions next to the state journal, so
		// a resumed run can prove completed tasks were not re-submitted
		// (docs/recovery.md, exactly-once verification).
		baseRTS.StorePath = filepath.Join(cfg.JournalDir, "rts-audit.log")
	}
	switch {
	case len(cfg.RemoteAgents) > 0:
		// Networked control plane: the runtime system lives in entk-agent
		// processes; the factory builds a fresh proxy per (re)start so the
		// heartbeat failover path re-dials the fleet.
		am.SetRTSFactory(remoterts.Factory(remoterts.Config{Addrs: cfg.RemoteAgents}))
	case len(cfg.ExtraResources) == 0:
		am.SetRTSFactory(rts.Factory(baseRTS))
	default:
		// Heterogeneous execution: one pilot per resource behind a routing
		// RTS, all replaceable as one black box on failure.
		am.SetRTSFactory(func(core.ResourceDesc) (core.RTS, error) {
			members := make([]rts.Config, 0, len(machine.Resources))
			for _, res := range machine.Resources {
				child := baseRTS
				child.Resource = res
				members = append(members, child)
			}
			return rts.NewRouter(members)
		})
	}

	return &AppManager{inner: am, clock: clock, machine: machine}, nil
}

// AddPipelines registers pipelines for execution. Called before Run it
// records them; called during execution (typically from a Stage.PostExec
// hook) it validates and schedules them immediately — adaptive workflows
// can fan out whole new pipelines at runtime, not just stages.
func (a *AppManager) AddPipelines(ps ...*Pipeline) error {
	return a.inner.AddPipelines(ps...)
}

// AddPipelineGroups registers an application expressed as a list of sets of
// pipelines — the paper's extended PST description (§II-B1). Pipelines in a
// group run concurrently; each group starts only after the previous group
// finished. Arbitrary DAGs can be declared directly with Pipeline.After.
func (a *AppManager) AddPipelineGroups(groups ...[]*Pipeline) error {
	return a.inner.AddPipelineGroups(groups...)
}

// Run is a wrapper over core.Run that owns the infrastructure teardown.
// It is returned by Start and is the only way to observe and steer a live
// execution: Wait, Cancel, Snapshot, Events/Subscribe, Pause/Resume and
// CancelPipeline all operate on the run this handle represents. The handle
// is the single owner of cluster/session teardown — Wait releases the
// simulated CI resources exactly once, however many times it is called.
type Run struct {
	a     *AppManager
	inner *core.Run
}

// teardown closes the simulated infrastructure. Idempotent.
func (a *AppManager) teardown() { a.machine.Close() }

// Start executes the application in the background and returns its run
// handle. Setup (validation, messaging, component spawn, pilot submission)
// happens synchronously; on setup failure the infrastructure is torn down
// and the error returned. A second Start (or Run) returns ErrAlreadyRan.
func (a *AppManager) Start(ctx context.Context) (*Run, error) {
	inner, err := a.inner.Start(ctx)
	if err != nil {
		if !errors.Is(err, core.ErrAlreadyRan) {
			a.teardown()
		}
		return nil, err
	}
	return &Run{a: a, inner: inner}, nil
}

// Wait blocks until the run finishes (all pipelines terminal, or the run
// canceled/failed), tears down the engine and the simulated infrastructure,
// and returns the run's error. Safe to call repeatedly and concurrently.
func (r *Run) Wait() error {
	err := r.inner.Wait()
	r.a.teardown()
	return err
}

// Done returns a channel closed when the engine side of the run finishes.
// Call Wait (from any goroutine) to release the infrastructure.
func (r *Run) Done() <-chan struct{} { return r.inner.Done() }

// Cancel aborts the whole run; Wait then returns a *CancelError carrying
// reason (it unwraps to context.Canceled).
func (r *Run) Cancel(reason string) { r.inner.Cancel(reason) }

// Snapshot returns a point-in-time Progress view: per-state entity counts,
// per-pipeline cursors, task attempts, pilot utilization, virtual clock.
func (r *Run) Snapshot() Progress { return r.inner.Snapshot() }

// Events returns a filtered stream of lifecycle transitions and a cancel
// function. The stream is bounded and drop-oldest: a stalled consumer never
// back-pressures the engine (see docs/api.md for the full contract). To
// observe the Dropped counter, use Subscribe.
func (r *Run) Events(f EventFilter) (<-chan Event, func()) { return r.inner.Events(f) }

// Subscribe attaches a typed event subscription with an inspectable handle.
func (r *Run) Subscribe(f EventFilter) *EventSub { return r.inner.Subscribe(f) }

// Pause suspends one pipeline at the next stage boundary: the stage in
// flight finishes, no further stage starts until Resume.
func (r *Run) Pause(pipelineUID string) error { return r.inner.Pause(pipelineUID) }

// Resume reactivates a paused pipeline.
func (r *Run) Resume(pipelineUID string) error { return r.inner.Resume(pipelineUID) }

// CancelPipeline cancels one pipeline while its siblings keep executing;
// the pipeline and its stages and tasks reach terminal CANCELED states.
func (r *Run) CancelPipeline(pipelineUID string) error {
	return r.inner.CancelPipeline(pipelineUID)
}

// Subscribe attaches a typed event subscription before or during execution.
// Subscriptions taken before Start are guaranteed to observe the run's very
// first transition.
func (a *AppManager) Subscribe(f EventFilter) *EventSub { return a.inner.Subscribe(f) }

// Snapshot returns a Progress view of the application (valid before,
// during and after execution).
func (a *AppManager) Snapshot() Progress { return a.inner.Snapshot() }

// Run executes the application to completion: a thin Start+Wait wrapper.
func (a *AppManager) Run(ctx context.Context) error {
	run, err := a.Start(ctx)
	if err != nil {
		return err
	}
	return run.Wait()
}

// Resume continues a previously journaled run from journalDir: the state
// recorded by the crashed incarnation (newest snapshot plus journal tail) is
// reconstructed, completed tasks are not re-executed, and the run proceeds
// to completion. The application must be registered (AddPipelines) with the
// same description — and, for cross-process resume, deterministic UIDs (the
// JSON Build path assigns them) — before calling Resume. Construct the
// AppManager with AppConfig.JournalDir set to the same directory so the RTS
// audit log lands next to the journal; Resume overrides the core journal
// location either way. Resuming a fresh directory is a durable first run.
// Like Start, Resume is single-shot per AppManager.
func (a *AppManager) Resume(ctx context.Context, journalDir string) (*Run, error) {
	inner, err := a.inner.Resume(ctx, journalDir)
	if err != nil {
		if !errors.Is(err, core.ErrAlreadyRan) {
			a.teardown()
		}
		return nil, err
	}
	return &Run{a: a, inner: inner}, nil
}

// Resume builds an AppManager for cfg (which must set JournalDir), registers
// pipes, and continues the journaled run found in cfg.JournalDir — the
// package-level convenience behind `entk-run -resume`.
func Resume(ctx context.Context, cfg AppConfig, pipes ...*Pipeline) (*Run, error) {
	if cfg.JournalDir == "" {
		return nil, errors.New("entk: Resume requires AppConfig.JournalDir")
	}
	am, err := NewAppManager(cfg)
	if err != nil {
		return nil, err
	}
	if err := am.AddPipelines(pipes...); err != nil {
		am.teardown()
		return nil, err
	}
	return am.Resume(ctx, cfg.JournalDir)
}

// Report returns the paper-style overhead decomposition of the run.
func (a *AppManager) Report() profiler.Report {
	return a.inner.Profiler().Report()
}

// Clock exposes the application's virtual clock.
func (a *AppManager) Clock() vclock.Clock { return a.clock }

// Filesystem exposes the shared-filesystem model (statistics).
func (a *AppManager) Filesystem() *fsim.FS { return a.machine.FS }

// Core exposes the underlying engine for advanced use (experiments,
// adaptive nudging).
func (a *AppManager) Core() *core.AppManager { return a.inner }

// Nudge wakes the scheduler after out-of-band workflow mutation.
func (a *AppManager) Nudge() { a.inner.Nudge() }

// CIs lists the catalogued computing infrastructures.
func CIs() []string { return hpc.Names() }
