package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a lifecycle event by the entity that transitioned.
type EventKind string

// Event kinds, matching the entity vocabulary of the state machines, plus
// the autotune controller's knob decisions.
const (
	EventTask     EventKind = "task"
	EventStage    EventKind = "stage"
	EventPipeline EventKind = "pipeline"
	// EventKnob is an autotune controller decision: Name is the knob
	// ("batch" or "schedulers"), From/To its values as decimal strings, and
	// UID is "autotune/<reason>" naming the rule that fired. Knob events are
	// never terminal.
	EventKnob EventKind = "knob"
)

// Event is one committed state transition, published by the Synchronizer at
// the moment it applies the change — the paper's continuously exposed
// execution state (§II-B4), but typed and in-process instead of mirrored
// through RabbitMQ/MongoDB. From is the pre-transition state, To the
// committed one, VTime the virtual commit instant. Attempt carries the
// task's attempt counter (0 for stages and pipelines). Pipeline and Stage
// name the owning entities so streams can be scoped without a registry
// lookup; for a pipeline event Pipeline is the pipeline's own UID.
type Event struct {
	Kind     EventKind
	UID      string
	Name     string
	Pipeline string
	Stage    string
	From     string
	To       string
	VTime    time.Time
	Attempt  int
}

// Terminal reports whether the event's To state is terminal for its kind.
func (e Event) Terminal() bool {
	switch e.Kind {
	case EventTask:
		return TaskState(e.To).Terminal()
	case EventStage:
		return StageState(e.To).Terminal()
	case EventPipeline:
		return PipelineState(e.To).Terminal()
	}
	return false
}

// EventFilter selects which events a subscription receives. The zero value
// matches everything. Each non-empty constraint must hold (conjunction):
// Kinds restricts entity kinds, Pipeline restricts to one pipeline's events
// (the pipeline itself, its stages and its tasks), UIDs restricts to the
// listed entity UIDs. Buffer sets the per-subscriber ring capacity (default
// DefaultEventBuffer); when the consumer falls behind by more than Buffer
// events, the oldest buffered events are dropped and the subscription's
// Dropped counter advances — publication never blocks the engine.
type EventFilter struct {
	Kinds    []EventKind
	Pipeline string
	UIDs     []string
	Buffer   int
}

// DefaultEventBuffer is the per-subscriber ring capacity used when
// EventFilter.Buffer is zero.
const DefaultEventBuffer = 1024

func (f *EventFilter) match(ev Event) bool {
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if k == ev.Kind {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Pipeline != "" && f.Pipeline != ev.Pipeline {
		return false
	}
	if len(f.UIDs) > 0 {
		ok := false
		for _, uid := range f.UIDs {
			if uid == ev.UID {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// EventSub is one live subscription: a bounded drop-oldest ring drained by a
// pump goroutine into the channel returned by C. The ring absorbs bursts; a
// consumer that stalls longer than the ring can absorb loses the oldest
// events (counted by Dropped) but never back-pressures the publisher, and
// the events that do survive stay in publication order.
type EventSub struct {
	bus    *eventBus
	filter EventFilter

	mu     sync.Mutex
	cond   *sync.Cond
	ring   []Event
	head   int
	count  int
	closed bool

	out       chan Event
	done      chan struct{}
	closeOnce sync.Once
	dropped   atomic.Uint64
}

// C returns the subscription's event channel. It is closed after Close, or
// once the run has finished and every buffered event has been delivered.
func (s *EventSub) C() <-chan Event { return s.out }

// Dropped reports how many events were discarded because the consumer fell
// behind the ring capacity (the slow-subscriber policy).
func (s *EventSub) Dropped() uint64 { return s.dropped.Load() }

// Close cancels the subscription immediately: undelivered events are
// discarded and C is closed. Safe to call multiple times and concurrently
// with delivery.
func (s *EventSub) Close() {
	s.closeOnce.Do(func() {
		if s.bus != nil {
			s.bus.unsubscribe(s)
		}
		s.mu.Lock()
		s.closed = true
		s.count = 0
		s.cond.Broadcast()
		s.mu.Unlock()
		close(s.done)
	})
}

// push appends one event, dropping the oldest when the ring is full. Called
// by the bus with the subscription registered; never blocks. The pump only
// parks on the condition variable when the ring is empty, so a signal is
// needed only on the empty->non-empty edge.
func (s *EventSub) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.count == len(s.ring) {
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		s.dropped.Add(1)
		if s.bus != nil {
			s.bus.drops.Add(1)
		}
	}
	s.ring[(s.head+s.count)%len(s.ring)] = ev
	s.count++
	if s.count == 1 {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// finish marks the stream complete: once the ring drains, the pump closes C.
func (s *EventSub) finish() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pump moves events from the ring to the out channel. It is the only sender
// on out and closes it on exit.
func (s *EventSub) pump() {
	for {
		s.mu.Lock()
		for s.count == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.count == 0 {
			s.mu.Unlock()
			close(s.out)
			return
		}
		ev := s.ring[s.head]
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		s.mu.Unlock()
		select {
		case s.out <- ev:
		case <-s.done:
			close(s.out)
			return
		}
	}
}

// eventBus fans committed transitions out to subscribers. Publishing with no
// subscribers costs one atomic load; with subscribers, one mutex acquisition
// plus a ring append per matching subscription.
type eventBus struct {
	mu     sync.Mutex
	subs   map[*EventSub]struct{}
	n      atomic.Int32
	closed bool
	// drops aggregates every subscriber ring's drop-oldest discards — the
	// bus-wide counter behind Progress.EventDrops and the controller's
	// drop-burst signal (per-subscriber Dropped() is poll-only).
	drops atomic.Uint64
}

func newEventBus() *eventBus {
	return &eventBus{subs: make(map[*EventSub]struct{})}
}

// active reports whether any subscription exists; emitters use it to skip
// event construction entirely on the common no-observer path.
func (b *eventBus) active() bool { return b.n.Load() > 0 }

func (b *eventBus) subscribe(f EventFilter) *EventSub {
	if f.Buffer <= 0 {
		f.Buffer = DefaultEventBuffer
	}
	// The out channel gets a modest buffer so the pump amortizes handoffs
	// instead of paying a scheduler switch per event; the ring remains the
	// authoritative bound (total in-flight capacity is Buffer + chan cap).
	chanCap := f.Buffer
	if chanCap > 256 {
		chanCap = 256
	}
	s := &EventSub{
		bus:    b,
		filter: f,
		ring:   make([]Event, f.Buffer),
		out:    make(chan Event, chanCap),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		s.closed = true
		close(s.out)
		s.closeOnce.Do(func() { close(s.done) }) // a later Close is a no-op
		return s
	}
	b.subs[s] = struct{}{}
	b.n.Add(1)
	b.mu.Unlock()
	go s.pump()
	return s
}

func (b *eventBus) unsubscribe(s *EventSub) {
	b.mu.Lock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		b.n.Add(-1)
	}
	b.mu.Unlock()
}

func (b *eventBus) publish(ev Event) {
	if !b.active() {
		return
	}
	b.mu.Lock()
	for s := range b.subs {
		if s.filter.match(ev) {
			s.push(ev)
		}
	}
	b.mu.Unlock()
}

// closeAll ends every subscription gracefully: buffered events still flow to
// their consumers, then each C closes. Called once the run handle finishes.
func (b *eventBus) closeAll() {
	b.mu.Lock()
	b.closed = true
	subs := make([]*EventSub, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = make(map[*EventSub]struct{})
	b.n.Store(0)
	b.mu.Unlock()
	for _, s := range subs {
		s.finish()
	}
}

// EventBus is a standalone fan-out hub with the same subscriber contract
// as an AppManager's event stream — bounded drop-oldest rings, non-blocking
// publish. It exists for components that relay events without owning a run
// (e.g. the remote event server's tests and tools).
type EventBus struct{ bus *eventBus }

// NewEventBus returns an empty standalone bus.
func NewEventBus() *EventBus { return &EventBus{bus: newEventBus()} }

// Subscribe attaches a subscriber; same semantics as AppManager.Subscribe.
func (b *EventBus) Subscribe(f EventFilter) *EventSub { return b.bus.subscribe(f) }

// Publish fans one event out to matching subscribers without blocking.
func (b *EventBus) Publish(ev Event) { b.bus.publish(ev) }

// Close ends every subscription gracefully: buffered events still drain,
// then each subscriber's channel closes.
func (b *EventBus) Close() { b.bus.closeAll() }

// EventPeerStats describes one remote event subscriber: a peer attached
// over the networked event fan-out. Each peer owns a bounded drop-oldest
// ring with the same contract as an in-process EventSub, so Sent counts the
// events that reached the peer's send queue and Dropped the ones its ring
// discarded because the peer fell behind. Disconnected peers are retained
// (Connected false) so a snapshot taken after the run still accounts for
// every subscriber the run served.
type EventPeerStats struct {
	// Peer is the subscriber's remote address.
	Peer string
	// Sent counts events handed to the peer's connection.
	Sent uint64
	// Dropped counts events discarded by the peer's drop-oldest ring.
	Dropped uint64
	// Connected reports whether the peer is still attached.
	Connected bool
}

// AddEventPeerSource registers a callback that reports remote event
// subscribers into Progress.EventPeers — the hook the remote event server
// uses to surface its per-peer drop accounting through Snapshot.
func (am *AppManager) AddEventPeerSource(f func() []EventPeerStats) {
	am.eventPeerMu.Lock()
	am.eventPeerSrcs = append(am.eventPeerSrcs, f)
	am.eventPeerMu.Unlock()
}

// eventPeers collects every registered source's current peer stats.
func (am *AppManager) eventPeers() []EventPeerStats {
	am.eventPeerMu.Lock()
	srcs := am.eventPeerSrcs
	am.eventPeerMu.Unlock()
	var out []EventPeerStats
	for _, f := range srcs {
		out = append(out, f()...)
	}
	return out
}

// PipelineProgress is one pipeline's slice of a Progress snapshot.
type PipelineProgress struct {
	UID   string
	Name  string
	State string
	// CurrentStage is the execution cursor; StageCount the pipeline's
	// current length (adaptive pipelines grow at runtime).
	CurrentStage int
	StageCount   int
	TasksDone    int
	TasksTotal   int
}

// Progress is a consistent-enough point-in-time view of a run: per-state
// entity counts, per-pipeline cursors, task attempt totals, the RTS's
// resource utilization and the virtual clock. Pipelines and stages are read
// one by one and tasks from each stage's tallies, so counts taken
// mid-transition may be one apart across stages — within one stage the task
// counts are of a single instant and always sum to its task count.
type Progress struct {
	// VTime is the virtual time the snapshot was taken.
	VTime time.Time
	// Pipelines, Stages and Tasks count entities by state name.
	Pipelines map[string]int
	Stages    map[string]int
	Tasks     map[string]int
	// TasksTotal is the number of registered tasks; TasksDone, TasksFailed
	// and TasksCanceled are the terminal tallies (also present in Tasks).
	TasksTotal    int
	TasksDone     int
	TasksFailed   int
	TasksCanceled int
	// TaskAttempts sums every task's attempt counter — resubmissions
	// included, which is what the Fig 10 harness reports.
	TaskAttempts int
	// ActiveTasks counts the tasks under management: scheduled at least once
	// this attempt and not yet terminal (SCHEDULING through EXECUTED). It is 0
	// once a run is over, however it ended.
	ActiveTasks int
	// Utilization and Store are the current RTS's Stats().Utilization and
	// Stats().Store: pilot occupancy, and the task store's counters — shard
	// depths, pull and steal tallies, per-scheduler dispatch counts. Before
	// the RTS starts (or for one that has no store), Store.Schedulers falls
	// back to the configured Config.SchedulerWorkers knob.
	Utilization Utilization
	Store       StoreStats
	// EventDrops aggregates drop-oldest discards across every in-process
	// event subscriber ring (per-subscriber Dropped() remains poll-only;
	// remote peers are accounted separately under EventPeers).
	EventDrops uint64
	// LiveBatchSize and LiveSchedulers are the current values of the run's
	// mutable knobs; with autotune disabled they equal the configured
	// Tuning knobs for the whole run. KnobChanges counts the autotune
	// controller's committed decisions (0 when disabled).
	LiveBatchSize  int
	LiveSchedulers int
	KnobChanges    uint64
	// EventPeers reports remote event subscribers — per-peer sent and
	// drop-oldest counters from the networked event fan-out. Empty unless
	// a remote event server is attached (AddEventPeerSource).
	EventPeers []EventPeerStats
	// PerPipeline details each registered pipeline.
	PerPipeline []PipelineProgress
	// Durability reports the crash-recovery subsystem — what this run
	// recovered at startup plus live snapshot/compaction counters — and is
	// nil for non-durable runs (no Config.JournalDir).
	Durability *DurabilityStats
}

// Snapshot assembles a Progress view of the application. Safe to call at
// any time, including before Start and after the run finished. It costs
// O(stages), not O(tasks), and takes no task's lock: task counts come from
// the per-stage tallies every task state write maintains.
func (am *AppManager) Snapshot() Progress {
	p := Progress{
		VTime:     am.clock.Now(),
		Pipelines: make(map[string]int),
		Stages:    make(map[string]int),
		Tasks:     make(map[string]int),
	}
	var tasks [numTaskStates]int
	for _, pipe := range am.Pipelines() {
		pp := PipelineProgress{
			UID:          pipe.UID,
			Name:         pipe.Name,
			State:        string(pipe.State()),
			CurrentStage: pipe.CurrentStageIndex(),
		}
		p.Pipelines[pp.State]++
		for _, s := range pipe.Stages() {
			pp.StageCount++
			p.Stages[string(s.State())]++
			n, attempts := s.tally.read()
			for state, k := range n {
				tasks[state] += k
				pp.TasksTotal += k
			}
			pp.TasksDone += n[codeDone]
			p.TaskAttempts += attempts
		}
		p.TasksTotal += pp.TasksTotal
		p.PerPipeline = append(p.PerPipeline, pp)
	}
	for state, k := range tasks {
		if k > 0 {
			p.Tasks[string(taskStateNames[state])] = k
		}
	}
	p.TasksDone, p.TasksFailed, p.TasksCanceled = tasks[codeDone], tasks[codeFailed], tasks[codeCanceled]
	p.ActiveTasks = active(tasks)
	if am.emgr != nil {
		if rts := am.emgr.currentRTS(); rts != nil {
			st := rts.Stats()
			p.Utilization, p.Store = st.Utilization, st.Store
		}
	}
	if p.Store.Schedulers == 0 {
		// Pre-start (or an RTS without a store): surface the configured
		// knob so dashboards render a stable scheduler count.
		p.Store.Schedulers = am.cfg.SchedulerWorkers
	}
	p.EventDrops = am.events.drops.Load()
	if am.live != nil {
		p.LiveBatchSize = am.live.BatchSize()
		p.LiveSchedulers = am.live.Schedulers()
	}
	p.KnobChanges = am.knobChanges.Load()
	p.EventPeers = am.eventPeers()
	p.Durability = am.durabilityStats()
	return p
}

// Subscribe attaches a typed event subscription. Subscriptions may be taken
// before Start — the recommended pattern for observers that must not miss
// the first transitions — and remain valid until the run finishes (the
// stream then drains and closes) or Close is called.
func (am *AppManager) Subscribe(f EventFilter) *EventSub {
	return am.events.subscribe(f)
}

// eventsActive reports whether any subscriber is attached; emit sites check
// it before building Event values so the no-observer hot path stays free.
func (am *AppManager) eventsActive() bool { return am.events.active() }

// emitTask publishes one committed task transition.
func (am *AppManager) emitTask(t *Task, from, to TaskState) {
	if !am.eventsActive() {
		return
	}
	pipeUID, stageUID := t.Parent()
	am.events.publish(Event{
		Kind:     EventTask,
		UID:      t.UID,
		Name:     t.Name,
		Pipeline: pipeUID,
		Stage:    stageUID,
		From:     string(from),
		To:       string(to),
		VTime:    am.clock.Now(),
		Attempt:  t.Attempts(),
	})
}

// emitStage publishes one committed stage transition.
func (am *AppManager) emitStage(s *Stage, from, to StageState) {
	if !am.eventsActive() {
		return
	}
	am.events.publish(Event{
		Kind:     EventStage,
		UID:      s.UID,
		Name:     s.Name,
		Pipeline: s.Parent(),
		From:     string(from),
		To:       string(to),
		VTime:    am.clock.Now(),
	})
}

// emitPipeline publishes one committed pipeline transition.
func (am *AppManager) emitPipeline(p *Pipeline, from, to PipelineState) {
	if !am.eventsActive() {
		return
	}
	am.events.publish(Event{
		Kind:     EventPipeline,
		UID:      p.UID,
		Name:     p.Name,
		Pipeline: p.UID,
		From:     string(from),
		To:       string(to),
		VTime:    am.clock.Now(),
	})
}
