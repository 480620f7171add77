package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msgcodec"
)

// A committed transition and the filter that selects it are wire types as
// well (the remote fan-out and entkd carry them in 0x35/0x36 frames), so
// each is defined once, in internal/msgcodec beside its codec, and aliased
// here.
type (
	// Event is one committed state transition, published by the
	// Synchronizer at the moment it applies the change.
	Event = msgcodec.Event
	// EventKind classifies a lifecycle event by the entity that
	// transitioned.
	EventKind = msgcodec.EventKind
	// EventFilter selects which events a subscription receives and sizes
	// its drop-oldest channel.
	EventFilter = msgcodec.EventFilter
)

// Event kinds.
const (
	EventTask     = msgcodec.EventTask
	EventStage    = msgcodec.EventStage
	EventPipeline = msgcodec.EventPipeline
	EventKnob     = msgcodec.EventKnob
)

// DefaultEventBuffer is the per-subscriber channel capacity used when
// EventFilter.Buffer is zero.
const DefaultEventBuffer = 1024

// maxEventBatch bounds the events one 0x36 frame coalesces.
const maxEventBatch = 64

// EventSub is one live subscription: a buffered channel of capacity
// EventFilter.Buffer, returned by C. The bus is its only sender and sends
// under its own lock, so a consumer that stalls until the channel is full
// loses the oldest events (counted by Dropped) but never back-pressures the
// publisher, and the events that do survive stay in publication order.
type EventSub struct {
	bus       *EventBus
	filter    EventFilter
	ch        chan Event
	closeOnce sync.Once // closes ch
	dropped   atomic.Uint64
}

// C returns the subscription's event channel. It is closed after Close, or
// once the run has finished and every buffered event has been delivered.
func (s *EventSub) C() <-chan Event { return s.ch }

// Dropped reports how many events were discarded because the consumer fell
// Buffer events behind (the slow-subscriber policy).
func (s *EventSub) Dropped() uint64 { return s.dropped.Load() }

// Close cancels the subscription immediately: undelivered events are
// discarded and C is closed. Safe to call multiple times and concurrently
// with delivery.
func (s *EventSub) Close() {
	s.bus.unsubscribe(s) // the bus sends nothing more
	s.finish()
	for len(s.ch) > 0 {
		<-s.ch // never blocks: ch is closed
	}
}

// SendFrames drains the subscription as the frames a socket carries it in:
// each 0x36 batch holds the next event plus whatever is already buffered
// behind it, up to 64, and once C closes a 0x37 frame carries Dropped. send
// gets every frame with the number of events in it (0 for the end frame);
// its first error ends the stream and is returned.
func (s *EventSub) SendFrames(send func(frame []byte, events int) error) error {
	batch := make([]Event, 0, maxEventBatch)
	for ev := range s.ch {
		batch = append(batch[:0], ev)
	coalesce:
		for len(batch) < maxEventBatch {
			select {
			case more, ok := <-s.ch:
				if !ok {
					break coalesce
				}
				batch = append(batch, more)
			default:
				break coalesce
			}
		}
		if err := send(msgcodec.EncodeEventBatch(batch), len(batch)); err != nil {
			return err
		}
	}
	return send(msgcodec.EncodeEventEnd(s.Dropped()), 0)
}

// push delivers one event without blocking; the bus calls it under b.mu
// with the subscription registered. On a full channel it takes the oldest
// event back out and counts the drop: nothing else sends, so there is then
// room for ev.
func (s *EventSub) push(ev Event) {
	select {
	case s.ch <- ev:
		return
	default:
	}
	select {
	case <-s.ch:
		s.dropped.Add(1)
		s.bus.drops.Add(1)
	default: // the consumer made room meanwhile
	}
	s.ch <- ev
}

// finish closes C once the bus has let go of the subscription (EventBus.Close
// or Close, whichever comes first): what is buffered stays readable.
func (s *EventSub) finish() { s.closeOnce.Do(func() { close(s.ch) }) }

// EventBus fans committed transitions out to subscribers: an AppManager's
// event stream, or a standalone hub for components that relay events
// without owning a run (entkd's stream of a finished run, tests). Publishing
// with no subscribers costs one atomic load; with subscribers, one mutex
// acquisition plus a channel send per matching subscription.
type EventBus struct {
	mu     sync.Mutex
	subs   map[*EventSub]struct{}
	n      atomic.Int32
	closed bool
	// drops aggregates every subscription's drop-oldest discards — the
	// bus-wide counter behind Progress.EventDrops and the controller's
	// drop-burst signal (per-subscriber Dropped() is poll-only).
	drops atomic.Uint64
}

// NewEventBus returns an empty bus.
func NewEventBus() *EventBus {
	return &EventBus{subs: make(map[*EventSub]struct{})}
}

// active reports whether any subscription exists; emitters use it to skip
// event construction entirely on the common no-observer path.
func (b *EventBus) active() bool { return b.n.Load() > 0 }

// Subscribe attaches a subscriber; same semantics as AppManager.Subscribe.
func (b *EventBus) Subscribe(f EventFilter) *EventSub {
	if f.Buffer <= 0 {
		f.Buffer = DefaultEventBuffer
	}
	s := &EventSub{bus: b, filter: f, ch: make(chan Event, f.Buffer)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		s.finish() // a later Close is a no-op
		return s
	}
	b.subs[s] = struct{}{}
	b.n.Add(1)
	return s
}

func (b *EventBus) unsubscribe(s *EventSub) {
	b.mu.Lock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		b.n.Add(-1)
	}
	b.mu.Unlock()
}

// Publish fans one event out to matching subscribers without blocking.
func (b *EventBus) Publish(ev Event) {
	if !b.active() {
		return
	}
	b.mu.Lock()
	for s := range b.subs {
		if s.filter.Match(ev) {
			s.push(ev)
		}
	}
	b.mu.Unlock()
}

// Close ends every subscription gracefully: buffered events still flow to
// their consumers, then each C closes. A run's bus is closed once the run
// handle finishes; a later Subscribe gets an already closed stream.
func (b *EventBus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for s := range b.subs {
		s.finish()
	}
	clear(b.subs)
	b.n.Store(0)
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
	// EventDrops aggregates drop-oldest discards across every subscription
	// of the run's bus — remote event-server peers and entkd clients
	// included, since each subscribes through the same bus (per-subscriber
	// Dropped() remains poll-only).
	EventDrops uint64
	// LiveBatchSize and LiveSchedulers are the current values of the run's
	// mutable knobs; with autotune disabled they equal the configured
	// Tuning knobs for the whole run. KnobChanges counts the committed
	// changes to the run's knob handle (tuning.Live.Version): the autotune
	// controller's decisions, 0 when it is disabled.
	LiveBatchSize  int
	LiveSchedulers int
	KnobChanges    uint64
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
		p.KnobChanges = am.live.Version()
	}
	p.Durability = am.durabilityStats()
	return p
}

// Subscribe attaches a typed event subscription. Subscriptions may be taken
// before Start — the recommended pattern for observers that must not miss
// the first transitions — and remain valid until the run finishes (the
// stream then drains and closes) or Close is called.
func (am *AppManager) Subscribe(f EventFilter) *EventSub {
	return am.events.Subscribe(f)
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
	am.events.Publish(Event{
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
	am.events.Publish(Event{
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
	am.events.Publish(Event{
		Kind:     EventPipeline,
		UID:      p.UID,
		Name:     p.Name,
		Pipeline: p.UID,
		From:     string(from),
		To:       string(to),
		VTime:    am.clock.Now(),
	})
}
