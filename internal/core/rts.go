package core

import (
	"context"
	"runtime"
	"time"

	"repro/internal/msgcodec"
)

// ResourceDesc tells EnTK which CI to use and how big a pilot to request,
// mirroring EnTK's resource dictionary (resource, walltime, cpus, gpus,
// queue, project).
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
	// Queue and Project are passed through to the batch system.
	Queue   string
	Project string
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
	// Name identifies the runtime system.
	Name() string
	// Start acquires resources (submits the pilot) and boots the agent.
	// It returns once the RTS accepts work; resource availability may
	// still be pending, exactly like a queued pilot.
	Start(ctx context.Context) error
	// Submit hands task descriptions to the RTS for execution. The slice is
	// the caller's and is overwritten by its next batch: an implementation
	// must not retain tasks or its backing array past return — what it needs
	// later (a queued task, a goroutine's argument, a record for a test) it
	// copies or encodes before returning. The elements' own slices and maps
	// are made per description and may be kept.
	Submit(tasks []TaskDescription) error
	// Completions delivers task results as they finish. The channel is
	// closed by Stop. Consumers read it through DrainCompletions.
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

// completionBatch bounds how many results one DrainCompletions call returns.
const completionBatch = 256

// DrainCompletions is how a consumer reads RTS.Completions: it blocks for the
// first result, yields the processor once so that every executor already
// runnable delivers too (a channel send hands the processor to the receiver
// it woke, ahead of them — without the yield an 8-task stage arrives as ~7
// separate bursts, each paying its own done-message and commit round trip),
// then takes whatever is queued without blocking, up to completionBatch. A
// backlog that fills the batch by itself is taken without the yield: there
// is nothing to wait for, and the yield would queue the consumer behind
// every runnable executor of a wide stage. Results come back in channel
// order in buf, which is reused across calls; an empty return means the
// channel is closed and drained.
func DrainCompletions(ch <-chan TaskResult, buf []TaskResult) []TaskResult {
	buf = buf[:0]
	res, ok := <-ch
	if !ok {
		return buf
	}
	buf = append(buf, res)
	if len(ch) < completionBatch-1 {
		runtime.Gosched()
	}
	for len(buf) < completionBatch {
		select {
		case res, ok := <-ch:
			if !ok {
				return buf
			}
			buf = append(buf, res)
		default:
			return buf
		}
	}
	return buf
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
