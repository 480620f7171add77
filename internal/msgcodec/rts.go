package msgcodec

import "time"

// ---- the RTS boundary's messages -----------------------------------------
//
// Three messages cross the boundary between EnTK and its runtime system
// (core.RTS): task descriptions in, task results out, stats out. Each is
// defined once, here beside its codec, and aliased from internal/core — so
// the remote frames carry core's own types and nothing is copied field by
// field between a "wire shape" and the real one. TaskResult is in wire.go
// with the done-queue codec it shares.

// StagingAction is the kind of data movement a staging directive performs
// (the values are core's StagingCopy, StagingLink, StagingMove and
// StagingTransfer).
type StagingAction string

// StagingDirective describes one input or output data movement.
type StagingDirective struct {
	Source string
	Target string
	Action StagingAction
	// Bytes is the payload size used by the filesystem model. Links cost
	// only a metadata operation regardless of Bytes.
	Bytes int64
	// Protocol selects the transfer mechanism for StagingTransfer
	// directives — "cp", "scp", "gsiscp", "sftp", "gsisftp" or "globus"
	// (paper §II-D). Empty means the backend's default. Ignored for local
	// copy/link/move actions, which always use the shared filesystem.
	Protocol string
}

// TaskDescription is the RTS-facing translation of a Task — what EnTK's
// Emgr hands to the runtime system (paper: "translate tasks from and to
// RTS-specific objects"), and what a task-batch frame carries to a remote
// agent.
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
	// Tags carry placement hints (see core.Task.Tags).
	Tags map[string]string
	// LocalFunc carries in-process computation (see core.Task.LocalFunc). A
	// closure cannot cross a socket: the task-batch codec never encodes it,
	// and the manager-side proxy rejects a task that sets one
	// (docs/remote.md).
	LocalFunc func() error
}

// RemoteTask and RemoteStaging name the same two types for callers written
// against the task-batch codec's own names (bench/ is one).
type (
	RemoteTask    = TaskDescription
	RemoteStaging = StagingDirective
)

// Utilization is a point-in-time view of the pilot resources backing the
// run, as reported by the runtime system.
type Utilization struct {
	// CoresTotal and CoresBusy describe the pilot's core allocation.
	CoresTotal int
	CoresBusy  int
	// GPUsTotal and GPUsBusy describe the pilot's GPU allocation.
	GPUsTotal int
	GPUsBusy  int
	// TasksInFlight counts tasks submitted to the RTS and not yet reported.
	TasksInFlight int
}

// StoreStats is the QueueStats-style counter block of an RTS's task store —
// the mailbox between the UnitManager and the Agent — including the
// multi-scheduler agent's per-scheduler tallies.
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
	// (index = scheduler id).
	Schedulers          int
	SchedulerPulls      []uint64
	SchedulerDispatches []uint64
	// SchedulerBusy is the cumulative virtual time each scheduler loop spent
	// dispatching pulled batches (index = scheduler id): Δbusy/Δdispatched
	// is the per-task dispatch latency the autotune controller watches.
	// Local-only — the agent-stats frame does not carry it (a msgcodec
	// version bump would be required), so a remote RTS reports an empty
	// slice.
	SchedulerBusy []time.Duration
}

// RTSStats is everything a runtime system reports about itself: what
// core.RTS.Stats returns, what Progress.Utilization and Progress.Store are
// read from, what the autotune sampler reads, and what an agent-stats frame
// carries (Utilization and Store; the counters stay with the manager's
// proxy, which keeps its own).
type RTSStats struct {
	PilotsSubmitted int
	TasksSubmitted  int
	TasksCompleted  int
	TasksFailed     int
	// Utilization is the pilot occupancy; an RTS that cannot see its
	// agent's cores reports TasksInFlight alone.
	Utilization Utilization
	// Store is the task store's and the scheduler pool's counters; zero for
	// an RTS without one.
	Store StoreStats
}

// Add merges one member's stats into s — how every composite RTS (a router
// over pilots, a proxy over agents) reports its members: scalars sum, the
// per-shard and per-scheduler slices concatenate in the order added.
func (s *RTSStats) Add(m RTSStats) {
	s.PilotsSubmitted += m.PilotsSubmitted
	s.TasksSubmitted += m.TasksSubmitted
	s.TasksCompleted += m.TasksCompleted
	s.TasksFailed += m.TasksFailed

	s.Utilization.CoresTotal += m.Utilization.CoresTotal
	s.Utilization.CoresBusy += m.Utilization.CoresBusy
	s.Utilization.GPUsTotal += m.Utilization.GPUsTotal
	s.Utilization.GPUsBusy += m.Utilization.GPUsBusy
	s.Utilization.TasksInFlight += m.Utilization.TasksInFlight

	s.Store.Shards += m.Store.Shards
	s.Store.ShardDepths = append(s.Store.ShardDepths, m.Store.ShardDepths...)
	s.Store.Depth += m.Store.Depth
	s.Store.Pushed += m.Store.Pushed
	s.Store.Pulled += m.Store.Pulled
	s.Store.Steals += m.Store.Steals
	s.Store.Schedulers += m.Store.Schedulers
	s.Store.SchedulerPulls = append(s.Store.SchedulerPulls, m.Store.SchedulerPulls...)
	s.Store.SchedulerDispatches = append(s.Store.SchedulerDispatches, m.Store.SchedulerDispatches...)
	s.Store.SchedulerBusy = append(s.Store.SchedulerBusy, m.Store.SchedulerBusy...)
}
