package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/broker"
	"repro/internal/hostmodel"
	"repro/internal/journal"
	"repro/internal/profiler"
	"repro/internal/statedb"
	"repro/internal/tuning"
	"repro/internal/vclock"
)

// Queue names forming the paper's Fig 2 topology.
const (
	QueuePending = "pending"  // WFProcessor.Enqueue -> Emgr          (Fig 2, 1-2)
	QueueDone    = "done"     // RTS Callback -> WFProcessor.Dequeue  (Fig 2, 4-5)
	QueueStates  = "states"   // components -> Synchronizer           (Fig 2, 6)
	ackPrefix    = "sync-ack" // Synchronizer -> components           (Fig 2, 7)
)

// queueID indexes a run's queues: the two task-traffic queues first, then
// the strictly ordered ones.
type queueID int

const (
	qPending queueID = iota
	qDone
	qStates
	qAckEnq
	qAckDeq
	qAckEmgr
	qAckCb // declared, as Fig 2 draws it; the RTS Callback issues no transition
	qAckHb // declared, as Fig 2 draws it; failover hands its lost tasks to Dequeue
	qAckCtl
	numQueues

	numSharded = int(qStates) // pending and done take the shard knob
)

// queueBases are the bare Fig 2 names, by queueID.
var queueBases = [numQueues]string{
	QueuePending, QueueDone, QueueStates,
	ackPrefix + "-enq", ackPrefix + "-deq", ackPrefix + "-emgr",
	ackPrefix + "-cb", ackPrefix + "-hb", ackPrefix + "-ctl",
}

// Config tunes an AppManager.
type Config struct {
	// Clock drives all modelled durations. Required.
	Clock vclock.Clock
	// Host models the machine running EnTK. Defaults to the null model.
	Host *hostmodel.Model
	// JournalDir, when non-empty, enables crash-recoverable runs: state
	// transitions are journaled into segment files under this directory,
	// the synchronizer periodically (every SnapshotEvery records) rolls the
	// journal to a new segment, snapshots the committed state at the roll
	// and compacts every segment before it, and AppManager.Resume
	// reconstructs a run from the latest snapshot plus the journal tail. See
	// docs/recovery.md for the durability contract.
	JournalDir string
	// SnapshotEvery is the number of committed state records between
	// snapshots in JournalDir mode — a minimum: a snapshot still being
	// written defers the next one. 0 selects the default (1024); negative
	// disables periodic snapshots (the journal alone remains authoritative).
	SnapshotEvery int
	// StateStore, when non-nil, mirrors every committed state transition
	// to an external database — the paper's §II-B4 hook ("Information is
	// synced on disk and hooks are in place to use an external database").
	// A write failure fails the transaction, keeping updates transactional.
	StateStore StateStore
	// TaskRetries is the default number of automatic resubmissions for a
	// failed task (paper §II-A: "resubmission of failed tasks, without
	// application checkpointing").
	TaskRetries int
	// RTSRestarts bounds how many times a failed RTS is restarted
	// ("Users can configure the number of times a RTS is restarted").
	RTSRestarts int
	// HeartbeatInterval is the virtual period of the RTS liveness probe.
	// Defaults to 10 virtual seconds.
	HeartbeatInterval time.Duration
	// EmgrBatch bounds how many pending tasks the Emgr submits per RTS
	// call. Defaults to 1024.
	EmgrBatch int
	// QueueShards is the number of independently locked ready rings backing
	// the pending and done queues (the broker's multi-consumer scaling
	// knob). 0 selects the broker default, min(GOMAXPROCS, 8); 1 restores
	// the single-lock queue. The states and sync-ack queues always use one
	// shard: the Synchronizer must observe state-transition requests in
	// arrival order across components, which only a single-shard queue
	// guarantees.
	QueueShards int
	// SchedulerWorkers is the RTS agent's scheduler concurrency — how many
	// scheduler loops drain the sharded task store. The engine records it
	// for Progress snapshots taken before the RTS bootstraps; the embedding
	// layer (entk) forwards the same knob into the RTS it builds. 0 selects
	// the RTS default, min(GOMAXPROCS, QueueShards); 1 is the strict-FIFO
	// single-scheduler agent.
	SchedulerWorkers int
	// Live is the run's mutable knob handle: the batch-size knob every hot
	// path reads with one atomic load. An embedding layer (entk) that also
	// builds the RTS passes the same handle into both, giving the autotune
	// controller a single source of truth. When nil, setDefaults builds a
	// collapsed-bounds handle from EmgrBatch/SchedulerWorkers whose values
	// can never change — the autotune-off contract.
	Live *tuning.Live
	// Autotune configures the live knob controller (see docs/autotune.md).
	// Zero value (Enabled false) means no controller goroutine exists.
	Autotune autotune.Policy
}

func (c *Config) setDefaults() error {
	if c.Clock == nil {
		return errors.New("core: config requires a clock")
	}
	if c.Host == nil {
		c.Host = hostmodel.Null()
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 10 * time.Second
	}
	if c.EmgrBatch <= 0 {
		c.EmgrBatch = 1024
	}
	if c.TaskRetries < 0 {
		c.TaskRetries = 0
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 1024
	}
	if c.Live == nil {
		scheds := c.SchedulerWorkers
		if scheds < 1 {
			scheds = 1
		}
		c.Live = tuning.Fixed(c.EmgrBatch, scheds)
	}
	return nil
}

// AppManager is EnTK's master component and the only stateful one (paper
// §II-B3). It holds the application description, owns the messaging
// infrastructure, spawns the Synchronizer, WFProcessor and ExecManager, and
// applies every state transition they request.
type AppManager struct {
	cfg   Config
	clock vclock.Clock
	prof  *profiler.Profiler
	host  *hostmodel.Model

	res        ResourceDesc
	rtsFactory RTSFactory

	mu        sync.Mutex
	pipelines []*Pipeline
	// The registry: nil until registerEntities sizes it for the application.
	tasks   map[string]*Task
	stages  map[string]*Stage
	pipes   map[string]*Pipeline
	running bool

	jrn *journal.Journal
	brk *broker.Broker

	// Durability state (JournalDir mode). mirror holds the latest committed
	// state per entity, feeding snapshots; recov summarizes what Resume
	// reconstructed (written during setup, before components spawn); the
	// atomic counters track this run's snapshot/compaction activity.
	// snapBusy is held by the one snapshot the background writer may have in
	// flight — and with it snapw, the writer's reused buffers — and snapWG
	// waits for it; snapHook, set only by tests, runs on the writer before it
	// touches the disk.
	mirror            *statedb.DB
	snapw             statedb.SnapshotWriter
	recov             RecoveryInfo
	snapPending       int // state records since the last snapshot (synchronizer goroutine, then teardown)
	snapBusy          atomic.Bool
	snapWG            sync.WaitGroup
	snapHook          func(watermark uint64)
	snapshotsWritten  int64
	snapshotFailures  int64
	segmentsCompacted int64

	// tally counts every registered stage's tasks by state (each stage's own
	// tally feeds it), so ActiveTasks — the host-strain read every broker
	// traversal makes — costs the same at any application size.
	tally taskTally

	// live is the hot paths' view of the mutable knobs (== cfg.Live); tuner
	// is the autotune controller steering it when cfg.Autotune.Enabled.
	live      *tuning.Live
	tuner     *autotune.Controller
	tunerStop chan struct{}
	tunerWG   sync.WaitGroup

	doneCh     chan struct{}
	finishOnce sync.Once // closes doneCh
	errMu      sync.Mutex
	runErr     error

	sync *synchronizer
	wfp  *wfProcessor
	emgr *execManager
	// halted is set as a whole-run cancel begins (cancelRemainingTasks), before
	// it force-states anything: from then on the Synchronizer refuses every
	// request.
	halted atomic.Bool
	// partHook, set only by tests, runs on the enqueue loop between two parts
	// of a streamed stage (wfProcessor.streamStage).
	partHook func()

	// events fans committed state transitions out to subscribers; ctl is
	// the run handle's synchronizer client (Pause/Resume/CancelPipeline),
	// serialized by ctlMu because sync clients are strictly one-in-flight.
	// ctlMu also guards ctl itself (made on first use, see ctlRequest) and
	// ctlClosed.
	events    *EventBus
	ctl       *syncClient
	ctlClosed bool
	ctlMu     sync.Mutex
}

// NewAppManager builds an AppManager from config.
func NewAppManager(cfg Config) (*AppManager, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	am := &AppManager{
		cfg:    cfg,
		clock:  cfg.Clock,
		prof:   profiler.New(),
		host:   cfg.Host,
		live:   cfg.Live,
		doneCh: make(chan struct{}),
		events: NewEventBus(),
	}
	return am, nil
}

// LiveTuning exposes the run's mutable knob handle (observability, tests,
// and the -progress knob line).
func (am *AppManager) LiveTuning() *tuning.Live { return am.live }

// SetResource records the resource request passed to the RTS.
func (am *AppManager) SetResource(res ResourceDesc) { am.res = res }

// SetRTSFactory installs the runtime-system factory.
func (am *AppManager) SetRTSFactory(f RTSFactory) { am.rtsFactory = f }

// Profiler returns the profiler measuring this application, one per manager.
func (am *AppManager) Profiler() *profiler.Profiler { return am.prof }

// AddPipelines registers pipelines. Before Run it only records them; during
// execution it validates, registers and schedules them immediately — the
// runtime workflow extension adaptive applications use to fan out new
// pipelines from a PostExec decision (§II-B1). Runtime additions should be
// made from a PostExec hook (or before the application drains), otherwise
// they race with application completion.
func (am *AppManager) AddPipelines(ps ...*Pipeline) error {
	am.mu.Lock()
	if am.pipes == nil { // not registered yet: Start's registration takes them
		am.pipelines = append(am.pipelines, ps...)
		am.mu.Unlock()
		return nil
	}
	am.mu.Unlock()
	return am.addPipelinesRuntime(ps)
}

// addPipelinesRuntime validates and registers pipelines added mid-run.
func (am *AppManager) addPipelinesRuntime(ps []*Pipeline) error {
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	am.mu.Lock()
	// Dependency check (membership + acyclicity) over the union of
	// registered and new pipelines.
	union := make([]*Pipeline, 0, len(am.pipelines)+len(ps))
	union = append(union, am.pipelines...)
	union = append(union, ps...)
	if err := checkDependencyGraph(union); err != nil {
		am.mu.Unlock()
		return err
	}
	// Register entities with duplicate protection, then publish.
	for _, p := range ps {
		if _, dup := am.pipes[p.UID]; dup {
			am.mu.Unlock()
			return fmt.Errorf("core: duplicate pipeline UID %s", p.UID)
		}
	}
	for _, p := range ps {
		am.pipes[p.UID] = p
		for _, s := range p.Stages() {
			am.indexStageLocked(s)
		}
		am.pipelines = append(am.pipelines, p)
	}
	am.mu.Unlock()
	am.Nudge()
	return nil
}

// AddPipelineGroups registers an application expressed as the paper's
// extended PST description — a list of sets of pipelines (§II-B1). All
// pipelines of one group execute concurrently; every pipeline of group i+1
// starts only after every pipeline of group i has finished. Dependencies
// across non-adjacent groups follow transitively.
func (am *AppManager) AddPipelineGroups(groups ...[]*Pipeline) error {
	for i, group := range groups {
		if len(group) == 0 {
			return fmt.Errorf("core: pipeline group %d is empty", i)
		}
		if i > 0 {
			for _, p := range group {
				if err := p.After(groups[i-1]...); err != nil {
					return err
				}
			}
		}
		if err := am.AddPipelines(group...); err != nil {
			return err
		}
	}
	return nil
}

// validateDependencies checks that every declared predecessor is part of the
// application and that the dependency graph is acyclic (a cycle would
// deadlock the enqueue loop).
func (am *AppManager) validateDependencies() error {
	return checkDependencyGraph(am.Pipelines())
}

// checkDependencyGraph verifies membership and acyclicity of the pipeline
// dependency graph over the given set.
func checkDependencyGraph(pipes []*Pipeline) error {
	member := make(map[*Pipeline]bool, len(pipes))
	for _, p := range pipes {
		member[p] = true
	}
	// Colors for iterative DFS cycle detection: 0 unvisited, 1 on stack,
	// 2 done.
	color := make(map[*Pipeline]int, len(pipes))
	var visit func(p *Pipeline) error
	visit = func(p *Pipeline) error {
		switch color[p] {
		case 1:
			return fmt.Errorf("core: pipeline dependency cycle through %s (%s)", p.UID, p.Name)
		case 2:
			return nil
		}
		color[p] = 1
		for _, pred := range p.Predecessors() {
			if !member[pred] {
				return fmt.Errorf("core: pipeline %s (%s) depends on unregistered pipeline %s (%s)",
					p.UID, p.Name, pred.UID, pred.Name)
			}
			if err := visit(pred); err != nil {
				return err
			}
		}
		color[p] = 2
		return nil
	}
	for _, p := range pipes {
		if err := visit(p); err != nil {
			return err
		}
	}
	return nil
}

// Pipelines returns the registered pipelines.
func (am *AppManager) Pipelines() []*Pipeline { return am.appendPipelines([]*Pipeline{}) }

// appendPipelines appends the registered pipelines to dst: a copy, because
// pipelines can be added mid-run, into a slice the caller reuses.
func (am *AppManager) appendPipelines(dst []*Pipeline) []*Pipeline {
	am.mu.Lock()
	defer am.mu.Unlock()
	return append(dst, am.pipelines...)
}

// wireNames holds the engine's own copies of the names every state record
// carries besides UIDs: the entity kinds and the state names.
var wireNames = func() map[string]string {
	names := map[string]string{"task": "task", "stage": "stage", "pipeline": "pipeline",
		string(PipelineSuspended): string(PipelineSuspended)} // the one state name no task has
	for _, s := range taskStateNames {
		names[string(s)] = string(s)
	}
	return names
}()

// resolveLocked is the registry as a msgcodec.Resolve:
// the engine's own copy of a task, stage or pipeline UID, an entity kind or a
// state name, or "" for anything else. Recovery decodes the snapshot and the
// journal against it under one hold of am.mu, which the caller takes, so a
// record of known names costs no string allocation.
func (am *AppManager) resolveLocked(b []byte) string {
	if t, ok := am.tasks[string(b)]; ok {
		return t.UID
	}
	if name, ok := wireNames[string(b)]; ok {
		return name
	}
	if s, ok := am.stages[string(b)]; ok {
		return s.UID
	}
	if p, ok := am.pipes[string(b)]; ok {
		return p.UID
	}
	return ""
}

// ActiveTasks returns the number of tasks currently being managed: those
// scheduled at least once this attempt and not yet terminal (SCHEDULING
// through EXECUTED), whatever wrote their state.
func (am *AppManager) ActiveTasks() int {
	n, _ := am.tally.read()
	return active(n)
}

// TaskCounts is a run's task tallies at one instant: the five numbers of a
// Progress that still mean something once the run is over.
type TaskCounts struct {
	Total, Done, Failed, Canceled int
	// Attempts sums every task's attempt counter, resubmissions included.
	Attempts int
}

// TaskCounts reads the run's tally: one lock, no allocation and no walk of
// the application — what a host keeps of a run it lets go of.
func (am *AppManager) TaskCounts() TaskCounts {
	n, attempts := am.tally.read()
	c := TaskCounts{Done: n[codeDone], Failed: n[codeFailed], Canceled: n[codeCanceled], Attempts: attempts}
	for _, k := range n {
		c.Total += k
	}
	return c
}

// Broker exposes the messaging layer (observability and tests).
func (am *AppManager) Broker() *broker.Broker { return am.brk }

// Nudge wakes the WFProcessor's enqueue loop. Adaptive applications call it
// after resuming a suspended pipeline or mutating the workflow from outside
// a PostExec hook.
func (am *AppManager) Nudge() {
	if am.wfp != nil {
		am.wfp.nudge()
	}
}

// RTSRestarts reports how many times the RTS was torn down and restarted.
func (am *AppManager) RTSRestarts() int {
	if am.emgr == nil {
		return 0
	}
	return am.emgr.Restarts()
}

// registerEntities indexes every pipeline, stage and task and wires parents,
// in one pass over registry maps sized for the application: every entity is
// written once, and a duplicate UID is a map that did not grow.
func (am *AppManager) registerEntities() error {
	am.mu.Lock()
	defer am.mu.Unlock()
	nStages, nTasks := 0, 0
	for _, p := range am.pipelines {
		for _, s := range p.Stages() {
			nStages++
			nTasks += s.TaskCount()
		}
	}
	am.pipes = make(map[string]*Pipeline, len(am.pipelines))
	am.stages = make(map[string]*Stage, nStages)
	am.tasks = make(map[string]*Task, nTasks)
	for _, p := range am.pipelines {
		n := len(am.pipes)
		if am.pipes[p.UID] = p; len(am.pipes) == n {
			return fmt.Errorf("core: duplicate pipeline UID %s", p.UID)
		}
		for _, s := range p.Stages() {
			n := len(am.stages)
			dup := am.indexStageLocked(s)
			if len(am.stages) == n {
				return fmt.Errorf("core: duplicate stage UID %s", s.UID)
			}
			if dup != "" {
				return fmt.Errorf("core: duplicate task UID %s", dup)
			}
		}
	}
	return nil
}

// registerLateStage indexes a stage added at runtime by a PostExec hook.
func (am *AppManager) registerLateStage(s *Stage) {
	am.mu.Lock()
	defer am.mu.Unlock()
	if _, ok := am.stages[s.UID]; !ok {
		am.indexStageLocked(s)
	}
}

// indexStageLocked enters a stage and its tasks into the registry and starts
// counting them in the run's tally. It returns the first of the stage's task
// UIDs the registry already held, "" when there is none. am.mu must be held.
func (am *AppManager) indexStageLocked(s *Stage) (dup string) {
	am.stages[s.UID] = s
	s.eachTask(func(t *Task) {
		n := len(am.tasks)
		if am.tasks[t.UID] = t; len(am.tasks) == n && dup == "" {
			dup = t.UID
		}
	})
	s.tally.feed(&am.tally)
	return dup
}

// validateApp checks the whole application description, charging the host's
// per-task validation cost (part of EnTK Setup Overhead).
func (am *AppManager) validateApp() error {
	if len(am.Pipelines()) == 0 {
		return errors.New("core: application has no pipelines")
	}
	nTasks := 0
	for _, p := range am.Pipelines() {
		if err := p.Validate(); err != nil {
			return err
		}
		nTasks += p.TaskCount()
	}
	if err := am.validateDependencies(); err != nil {
		return err
	}
	if am.res.Resource == "" {
		return errors.New("core: no resource description")
	}
	if am.res.Cores <= 0 {
		return errors.New("core: resource requests no cores")
	}
	if am.rtsFactory == nil {
		return errors.New("core: no RTS factory configured")
	}
	cost := time.Duration(nTasks) * am.host.ValidationCost
	am.clock.Sleep(cost)
	am.prof.Add(profiler.EnTKSetup, cost)
	return nil
}

// msgDelay charges one broker traversal to the management overhead,
// applying host strain at the current task concurrency. A host whose
// traversals cost nothing pays nothing at any concurrency, so it reads no
// tally: the traversal is counted at zero cost.
func (am *AppManager) msgDelay() {
	var cost time.Duration
	if am.host.MsgCost > 0 {
		cost = am.host.EffectiveMsgCost(am.ActiveTasks())
		am.clock.Sleep(cost)
	}
	am.prof.Add(profiler.EnTKManagement, cost)
}

// spawnCost charges the instantiation of n components/subcomponents/queues
// to the setup overhead. Costs are accounted exactly (not wall-derived), so
// overhead figures are noise-free at any clock scale.
func (am *AppManager) spawnCost(n int) {
	cost := time.Duration(n) * am.host.SpawnCost
	am.clock.Sleep(cost)
	am.prof.Add(profiler.EnTKSetup, cost)
}

// teardownCost charges the termination of n components.
func (am *AppManager) teardownCost(n int) {
	cost := time.Duration(n) * am.host.TeardownCost
	am.clock.Sleep(cost)
	am.prof.Add(profiler.EnTKTeardown, cost)
}

// closeJournal closes the state journal if one is open, after the snapshot
// writer has finished the snapshot it may have in flight (it compacts
// through the journal) and the snapshot the run's last commits are owed is
// written (snapshotOwed). The synchronizer must have stopped: it is the only
// other one that takes snapshots.
func (am *AppManager) closeJournal() {
	am.snapWG.Wait()
	if am.jrn != nil {
		am.snapshotOwed()
		am.jrn.Close()
	}
}

// qname is one of the run's queue names: the bare Fig 2 constants, since
// every run owns its broker.
func (am *AppManager) qname(id queueID) string { return queueBases[id] }

// declareTopology creates the run's broker and declares the paper's Fig 2
// queue topology on it. The task-traffic queues (pending, done) take the
// shard knob: their messages are causally independent per task, so sharded
// rings are safe and let concurrent producers/consumers scale. The states
// queue and the sync-ack queues are pinned to one shard — the Synchronizer
// must apply transition requests in cross-component arrival order
// (SCHEDULED before DONE for the same stage), which is a strict-FIFO,
// single-shard guarantee.
func (am *AppManager) declareTopology() error {
	am.brk = broker.New(broker.Options{PerOpDelay: am.msgDelay})
	for i, name := range queueBases {
		opts := broker.QueueOptions{Shards: 1}
		if i < numSharded {
			opts.Shards = am.cfg.QueueShards
		}
		if err := am.brk.DeclareQueue(name, opts); err != nil {
			return err
		}
	}
	am.spawnCost(int(numQueues)) // messaging infrastructure
	return nil
}

// releaseBroker closes the run's broker, if setup got as far as making it.
func (am *AppManager) releaseBroker() {
	if am.brk != nil {
		am.brk.Close()
	}
}

func (am *AppManager) takeErr() error {
	am.errMu.Lock()
	defer am.errMu.Unlock()
	return am.runErr
}

func (am *AppManager) setErr(err error) {
	am.errMu.Lock()
	defer am.errMu.Unlock()
	if am.runErr == nil {
		am.runErr = err
	}
}

// finish signals Run that the application is over: every pipeline is
// terminal (Dequeue, the one goroutine that settles them, calls finish(nil))
// or a component failed with err.
func (am *AppManager) finish(err error) {
	if err != nil {
		am.setErr(err)
	}
	am.finishOnce.Do(func() { close(am.doneCh) })
}

// allPipelinesTerminal reports whether the application has finished.
func (am *AppManager) allPipelinesTerminal() bool {
	for _, p := range am.Pipelines() {
		if !p.State().Terminal() {
			return false
		}
	}
	return true
}

// cancelRemainingTasks marks every non-terminal entity canceled after a
// context cancellation, and every FAILED task whose stage is still open: a
// retry (settleFailures, a task lost with its RTS included) can still move
// such a task on to SCHEDULING, so it is canceled as cancelPipeline cancels it
// (FAILED→CANCELED is legal, and the sticky cancel absorbs the late
// SCHEDULING). A FAILED task in a terminal stage stays FAILED. The forced
// transitions bypass the Synchronizer (it is about to stop), so the
// cancellation events are published here. Nothing is journaled: halted stops
// the Synchronizer first, so neither what the forced states set off — a stage
// the Dequeue finds with every task CANCELED, a dependent pipeline the Enqueue
// cascades to — nor anything else commits after it, and the journal reads as
// if the process had died here (docs/recovery.md, invariant 1). It holds
// ctlMu throughout, so a Pause, Resume or CancelPipeline either commits before
// it or is refused once every entity is forced.
func (am *AppManager) cancelRemainingTasks() {
	am.ctlMu.Lock()
	defer am.ctlMu.Unlock()
	am.halted.Store(true)
	am.mu.Lock()
	tasks := make([]*Task, 0, len(am.tasks))
	for _, t := range am.tasks {
		tasks = append(tasks, t)
	}
	pipes := append([]*Pipeline(nil), am.pipelines...)
	am.mu.Unlock()
	for _, t := range tasks {
		from := t.State()
		if from == TaskFailed {
			if s := t.parentStage(); s == nil || s.State().Terminal() {
				continue
			}
		} else if from.Terminal() {
			continue
		}
		t.forceState(TaskCanceled)
		am.emitTask(t, from, TaskCanceled)
	}
	for _, p := range pipes {
		if from := p.State(); !from.Terminal() {
			p.forceState(PipelineCanceled)
			am.emitPipeline(p, from, PipelineCanceled)
		}
		for _, s := range p.Stages() {
			if from := s.State(); !from.Terminal() {
				s.forceState(StageCanceled)
				am.emitStage(s, from, StageCanceled)
			}
		}
	}
}

// stopComponents tears down whatever was started during a failed setup.
func (am *AppManager) stopComponents() {
	if am.sync != nil {
		am.sync.stop()
	}
	am.releaseBroker()
}

// retriesFor resolves a task's resubmission budget.
func (am *AppManager) retriesFor(t *Task) int {
	if t.MaxRetries >= 0 {
		return t.MaxRetries
	}
	return am.cfg.TaskRetries
}
