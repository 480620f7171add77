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

// TaskDescription is the RTS-facing translation of a Task — what EnTK's
// Emgr hands to the runtime system (paper: "translate tasks from and to
// RTS-specific objects").
type TaskDescription struct {
	UID         string
	Name        string
	Executable  string
	Arguments   []string
	Environment map[string]string
	Cores       int
	GPUs        int
	Duration    time.Duration
	IOLoad      float64
	PreExec     int // number of pre-exec commands (each costs env setup time)
	PostExec    int
	Input       []StagingDirective
	Output      []StagingDirective
	Attempt     int
	// Tags carry placement hints (see Task.Tags).
	Tags map[string]string
	// LocalFunc carries in-process computation (see Task.LocalFunc).
	LocalFunc func() error
}

// TaskResult is the RTS's report of one finished task attempt. It is the
// done-queue wire type, so it lives in internal/msgcodec next to its codec.
type TaskResult = msgcodec.TaskResult

// StoreStats is the QueueStats-style counter block of an RTS's task store —
// the mailbox between the UnitManager and the Agent — including the
// multi-scheduler agent's per-scheduler tallies. It is exported through
// Progress.Store when the RTS implements StoreStatsReporter.
type StoreStats struct {
	// Shards and ShardDepths describe the store's sharded ready storage;
	// Depth is the total number of queued tasks (the sum of ShardDepths).
	Shards      int
	ShardDepths []int
	Depth       int
	// Pushed and Pulled count tasks through the store. Steals counts pull
	// batches a scheduler served off a non-preferred shard (work-stealing;
	// always 0 for a single-scheduler agent, which pulls in strict
	// push-sequence order instead).
	Pushed uint64
	Pulled uint64
	Steals uint64
	// Schedulers is the agent's scheduler-loop count; SchedulerPulls and
	// SchedulerDispatches tally store pulls and task dispatches per loop
	// (index = scheduler id). Composite RTSes concatenate their members'
	// slices.
	Schedulers          int
	SchedulerPulls      []uint64
	SchedulerDispatches []uint64
	// SchedulerBusy is the cumulative virtual time each scheduler loop spent
	// dispatching pulled batches (index = scheduler id): Δbusy/Δdispatched
	// is the per-task dispatch latency the autotune controller watches.
	// Local-only — the remote wire's AgentStats does not carry it (a
	// msgcodec version bump would be required), so a remote RTS reports an
	// empty slice.
	SchedulerBusy []time.Duration
}

// StoreStatsReporter is the optional RTS extension behind Progress.Store.
// An RTS that can see its task store and agent schedulers implements it;
// Snapshot degrades to the configured scheduler count otherwise.
type StoreStatsReporter interface {
	StoreStats() StoreStats
}

// RTSStats exposes counters from the runtime system.
type RTSStats struct {
	PilotsSubmitted int
	TasksSubmitted  int
	TasksCompleted  int
	TasksFailed     int
	TasksInFlight   int
	Restarts        int
}

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
	// Submit hands task descriptions to the RTS for execution.
	Submit(tasks []TaskDescription) error
	// Completions delivers task results as they finish. The channel is
	// closed by Stop. Consumers read it through DrainCompletions.
	Completions() <-chan TaskResult
	// Alive reports whether the RTS is healthy; the ExecManager heartbeat
	// polls it (paper: EnTK tears down and restarts a failed RTS).
	Alive() bool
	// Stop cancels pilots and shuts the RTS down, closing Completions.
	Stop() error
	// Stats returns counters.
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
