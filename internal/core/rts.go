package core

import (
	"context"
	"time"

	"repro/internal/msgcodec"
)

// ResourceDesc tells EnTK which CI to use and how big a pilot to request,
// mirroring EnTK's resource dictionary (resource, walltime, cpus, gpus).
type ResourceDesc struct {
	// Resource is the CI name (e.g. "titan", "supermic").
	Resource string
	// Cores is the pilot size in cores.
	Cores int
	// GPUs is the pilot's GPU count; the agent schedules GPU tasks
	// against it exactly as it schedules cores.
	GPUs int
	// Walltime is the pilot's requested walltime.
	Walltime time.Duration
}

// The three messages that cross the RTS boundary — descriptions in, results
// out, stats out — are wire types as well (the done queue and the remote
// control plane carry them), so each is defined once, in internal/msgcodec
// beside its codec, and aliased here.
type (
	// TaskDescription is the RTS-facing translation of a Task — what EnTK's
	// Emgr hands to the runtime system (paper: "translate tasks from and to
	// RTS-specific objects").
	TaskDescription = msgcodec.TaskDescription
	// StagingAction is the kind of data movement a staging directive performs.
	StagingAction = msgcodec.StagingAction
	// StagingDirective describes one input or output data movement.
	StagingDirective = msgcodec.StagingDirective
	// TaskResult is the RTS's report of one finished task attempt.
	TaskResult = msgcodec.TaskResult
	// RTSStats is what RTS.Stats returns: task and pilot counters, the pilot
	// occupancy and the task store's counters. A composite RTS merges its
	// members' with RTSStats.Add.
	RTSStats = msgcodec.RTSStats
	// Utilization is the pilot-occupancy part of RTSStats, surfaced as
	// Progress.Utilization.
	Utilization = msgcodec.Utilization
	// StoreStats is the task-store and scheduler-pool part of RTSStats,
	// surfaced as Progress.Store.
	StoreStats = msgcodec.StoreStats
)

// RTS is the black-box runtime-system interface (paper §II-B2: "the
// isolation of the RTS into a stand-alone subsystem ... enables
// composability of EnTK with diverse RTS"). EnTK only ever drives an RTS
// through this interface; internal/rts provides the RADICAL-Pilot-like
// implementation and tests provide fakes.
type RTS interface {
	// Start acquires resources (submits the pilot) and boots the agent.
	// It returns once the RTS accepts work; resource availability may
	// still be pending, exactly like a queued pilot. An RTS whose Start
	// failed is still Stopped by its caller: Stop releases whatever Start
	// had acquired before it failed (a journal, a composite's members that
	// did start), so Start need not unwind itself.
	Start(ctx context.Context) error
	// Submit hands task descriptions to the RTS for execution. The slice is
	// the caller's and is overwritten by its next batch: an implementation
	// must not retain tasks or its backing array past return — what it needs
	// later (a queued task, a goroutine's argument, a record for a test) it
	// copies or encodes before returning. The elements' own slices and maps
	// are made per description and may be kept.
	Submit(tasks []TaskDescription) error
	// Completions delivers task results as they finish. The channel is
	// closed by Stop. Implementations produce into it through an Outbox;
	// consumers read it through DrainCompletions.
	Completions() <-chan TaskResult
	// Alive reports whether the RTS is healthy; the ExecManager heartbeat
	// polls it (paper: EnTK tears down and restarts a failed RTS).
	Alive() bool
	// Stop cancels pilots and shuts the RTS down, closing Completions.
	Stop() error
	// Stats returns the RTS's counters, pilot occupancy and task-store
	// counters — the whole telemetry contract: Snapshot, the autotune
	// sampler and a remote agent's report all read this one value. It may
	// take the store's locks and allocate, so it is not for the task path.
	Stats() RTSStats
}

// RTSFactory builds a fresh RTS instance. The ExecManager uses it both for
// the initial start and for restarts after an RTS failure, so the RTS is
// replaceable mid-run (paper §II-B4: "EnTK purges any process left over by
// the failed RTS, starts a new instance of the RTS ... and restarts
// executing the ensemble until completion").
type RTSFactory func(res ResourceDesc) (RTS, error)

// describeTask translates a Task into its RTS description.
func describeTask(t *Task) TaskDescription {
	return TaskDescription{
		UID:         t.UID,
		Name:        t.Name,
		Executable:  t.Executable,
		Arguments:   append([]string(nil), t.Arguments...),
		Environment: copyTags(t.Environment),
		Cores:       t.CPUReqs.Cores(),
		GPUs:        t.GPUReqs.Processes,
		Duration:    t.Duration,
		IOLoad:      t.IOLoad,
		PreExec:     len(t.PreExec),
		PostExec:    len(t.PostExec),
		Input:       append([]StagingDirective(nil), t.InputStaging...),
		Output:      append([]StagingDirective(nil), t.OutputStaging...),
		Attempt:     t.Attempts(),
		Tags:        copyTags(t.Tags),
		LocalFunc:   t.LocalFunc,
	}
}

func copyTags(tags map[string]string) map[string]string {
	if len(tags) == 0 {
		return nil
	}
	out := make(map[string]string, len(tags))
	for k, v := range tags {
		out[k] = v
	}
	return out
}
