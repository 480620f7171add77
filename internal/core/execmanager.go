package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/broker"
)

// execManager is the Workload-Management-layer component (paper Fig 2) with
// four subcomponents:
//
//   - Rmgr acquires resources by instantiating and starting the RTS.
//   - Emgr pulls tasks from the pending queue, sends their SUBMITTING and
//     SUBMITTED transitions, translates them to RTS-specific descriptions
//     while the Synchronizer commits those, and submits them once it has the
//     ack (Fig 2, arrows 2-3), marking each in flight (Task.inflight).
//   - RTS Callback pushes completed tasks to the done queue (arrow 4),
//     keeping a result only if it clears its task's in-flight mark.
//   - Heartbeat probes RTS liveness and drives tear-down/restart of a
//     failed RTS, re-executing only the tasks lost in flight (§II-B4): the
//     ones still marked.
type execManager struct {
	am *AppManager

	mu       sync.Mutex
	rts      RTS
	rtsReady *sync.Cond    // on mu: failover adopted a replacement, or stopCh closed
	cbDone   chan struct{} // closed when rts's callbackLoop has returned
	restarts int

	pendC    *broker.Consumer
	emgrSync *syncClient
	scratch  emgrScratch // the Emgr goroutine's (submitBatch)
	// hbSync commits the re-injection of tasks lost with a failed RTS. Most
	// runs never fail over, so it is made on first use, on the heartbeat
	// goroutine — the only one that uses it; stopRTS closes it after that
	// goroutine has exited.
	hbSync *syncClient

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	// doneFree holds the done queue's spent messages, which Dequeue hands
	// back for the callback loops to fill again.
	doneMu   sync.Mutex
	doneFree []*doneBatch

	// submitMu makes the Emgr's mark-in-flight / Submit / unmark-on-refusal
	// one step as failover sees it: failover collects the marks (Task.inflight:
	// submitted to the current RTS, not yet reported back) under it.
	// Otherwise it could collect a batch's marks just before the stopped RTS
	// refuses the batch, and the tasks would be pending twice — re-injected
	// and requeued.
	submitMu sync.Mutex
}

func newExecManager(am *AppManager) *execManager {
	e := &execManager{
		am:     am,
		stopCh: make(chan struct{}),
	}
	e.rtsReady = sync.NewCond(&e.mu)
	return e
}

// start brings up Rmgr (RTS acquisition), Emgr, Callback and Heartbeat.
func (e *execManager) start(ctx context.Context) error {
	var err error
	if e.emgrSync, err = newSyncClient(e.am, qAckEmgr); err != nil {
		return err
	}

	// Rmgr: instantiate and start the RTS (resource acquisition).
	rts, err := e.am.rtsFactory(e.am.res)
	if err != nil {
		return fmt.Errorf("core: rts factory: %w", err)
	}
	if err := rts.Start(ctx); err != nil {
		rts.Stop() //nolint:errcheck // release what the failed Start acquired
		return fmt.Errorf("core: rts start: %w", err)
	}
	cbDone := make(chan struct{})
	e.mu.Lock()
	e.rts, e.cbDone = rts, cbDone
	e.mu.Unlock()

	// Pull-mode consumer: the Emgr pops whole batches of pending messages
	// per broker round-trip instead of draining a delivery channel. The
	// consumer prefetch caps the realizable batch size, so it registers at
	// the live knob's upper bound; with autotune disabled the bound
	// collapses onto the configured EmgrBatch.
	if e.pendC, err = e.am.brk.ConsumeBatch(e.am.qname(qPending), e.am.live.MaxBatch()); err != nil {
		return err
	}

	e.wg.Add(3)
	go e.emgrLoop(ctx)
	go e.callbackLoop(rts, cbDone)
	go e.heartbeatLoop(ctx)
	return nil
}

// currentRTS returns the live RTS instance.
func (e *execManager) currentRTS() RTS {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rts
}

// awaitRTS parks the caller while failover has purged the dead RTS and not
// yet adopted its replacement (a remote RTS may spend seconds dialing its
// agents). It reports false once the manager is stopping.
func (e *execManager) awaitRTS() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		select {
		case <-e.stopCh:
			return false
		default:
		}
		if e.rts != nil {
			return true
		}
		e.rtsReady.Wait()
	}
}

// emgrLoop drains the pending queue in batches and submits to the RTS. With
// no RTS to submit to it takes nothing off the queue: a batch received then
// could only be requeued, to be received again at once.
func (e *execManager) emgrLoop(ctx context.Context) {
	defer e.wg.Done()
	for {
		if !e.awaitRTS() || ctx.Err() != nil {
			return
		}
		// One broker round-trip per batch; cancellation (stop, broker
		// close) surfaces as an error from ReceiveBatch. The batch bound is
		// the live knob: one atomic load per broker round-trip.
		batch, err := e.pendC.ReceiveBatch(e.am.live.BatchSize())
		if err != nil {
			return
		}
		if err := e.submitBatch(batch); err != nil {
			e.am.finish(err)
			return
		}
	}
}

// submitBatch translates and submits one batch of pending messages, each a
// chunk of tasks. The batch is acked or requeued whole, as one broker
// settlement. What it builds for every batch is the Emgr goroutine's scratch
// (emgrScratch), descriptions included: an RTS keeps nothing of the slice
// Submit hands it (the RTS contract).
func (e *execManager) submitBatch(batch []*broker.Delivery) error {
	sc := &e.scratch
	defer sc.release()
	// Both transitions are applied in bulk before the RTS sees the batch:
	// a fast RTS may otherwise report completion before SUBMITTED is
	// recorded. Redelivered tasks (RTS refused a previous batch) skip
	// transitions they already made.
	for _, d := range batch {
		for _, t := range *d.Value.(*[]*Task) {
			st := t.State()
			if st.Terminal() {
				// The task was canceled (or recovered as DONE) after its
				// pending message was published; submitting it would only
				// burn pilot cores on a result the Dequeue will discard.
				continue
			}
			sc.tasks = append(sc.tasks, t)
			switch st {
			case TaskScheduled:
				sc.toSubmitting = append(sc.toSubmitting, t)
				sc.toSubmitted = append(sc.toSubmitted, t)
			case TaskSubmitting:
				sc.toSubmitted = append(sc.toSubmitted, t)
			}
		}
	}
	tasks := sc.tasks
	e.emgrSync.begin()
	e.emgrSync.addTasks(sc.toSubmitting, TaskSubmitting)
	e.emgrSync.addTasks(sc.toSubmitted, TaskSubmitted)
	if err := e.emgrSync.send(); err != nil {
		broker.NackBatch(batch, true) //nolint:errcheck
		return err
	}
	// The descriptions are translated while the Synchronizer commits the
	// frame, sized once for the batch: a run's first wide batch would
	// otherwise grow them, 200 bytes each, doubling by doubling.
	sc.descs = slices.Grow(sc.descs, len(tasks))
	for _, t := range tasks {
		sc.descs = append(sc.descs, describeTask(t))
	}
	if err := e.emgrSync.await(); err != nil {
		broker.NackBatch(batch, true) //nolint:errcheck
		return err
	}
	if len(tasks) == 0 {
		return broker.AckBatch(batch)
	}
	e.submitMu.Lock()
	defer e.submitMu.Unlock()
	rts := e.currentRTS()
	if rts == nil {
		// Failover purged the RTS after emgrLoop last saw one. The batch is
		// not lost work — requeue it; emgrLoop parks until the replacement
		// is adopted.
		return broker.NackBatch(batch, true)
	}
	// Marked before Submit: a fast RTS may report a task before Submit
	// returns, and the callback must find the mark to clear.
	for _, t := range tasks {
		t.inflight.Store(true)
	}
	if err := rts.Submit(sc.descs); err != nil {
		// The RTS refused the batch; requeue it, drop the marks so a later
		// failover cannot re-inject tasks that were never actually submitted,
		// and let the heartbeat decide whether the RTS is dead.
		for _, t := range tasks {
			t.inflight.Store(false)
		}
		return broker.NackBatch(batch, true)
	}
	return broker.AckBatch(batch)
}

// emgrScratch is what submitBatch builds for one batch of pending messages and
// has no use for once the batch is settled, kept from batch to batch for its
// capacity (owner: the Emgr goroutine): the tasks to submit, those tasks as
// RTS descriptions, and the tasks each bulk transition applies to.
type emgrScratch struct {
	tasks                     []*Task
	descs                     []TaskDescription
	toSubmitting, toSubmitted []*Task
}

// release empties the scratch without letting go of its arrays, and without
// keeping alive what they pointed at: the descriptions' argument and staging
// lists.
func (sc *emgrScratch) release() {
	clear(sc.descs)
	sc.tasks, sc.descs = sc.tasks[:0], sc.descs[:0]
	sc.toSubmitting, sc.toSubmitted = sc.toSubmitting[:0], sc.toSubmitted[:0]
}

// doneBatch is the done queue's message: one drain of an RTS's completions,
// each result beside the task it reports on. A callback loop fills it and
// Dequeue, once it has settled the results, hands it back for the next drain,
// so a drain allocates nothing once as many are in circulation as the done
// queue ever holds at once.
type doneBatch struct{ items []doneItem }

type doneItem struct {
	task *Task
	res  TaskResult
}

// spareDone returns a spent done message to fill, or a new one.
func (e *execManager) spareDone() *doneBatch {
	e.doneMu.Lock()
	defer e.doneMu.Unlock()
	n := len(e.doneFree)
	if n == 0 {
		return new(doneBatch)
	}
	b := e.doneFree[n-1]
	e.doneFree = e.doneFree[:n-1]
	return b
}

// recycle hands a settled done message back for reuse.
func (e *execManager) recycle(b *doneBatch) {
	clear(b.items) // the tasks and error texts are not the free list's to keep alive
	b.items = b.items[:0]
	e.doneMu.Lock()
	e.doneFree = append(e.doneFree, b)
	e.doneMu.Unlock()
}

// callbackLoop forwards one RTS instance's completions to the done queue,
// coalescing bursts into one message per drain. Each RTS generation
// publishes through its own shard-pinned producer, so on a sharded done
// queue the Dequeue subcomponent observes one generation's results in
// publish order.
func (e *execManager) callbackLoop(rts RTS, done chan struct{}) {
	defer e.wg.Done()
	defer close(done)
	doneP, err := e.am.brk.Producer(e.am.qname(qDone))
	if err != nil {
		return // broker closed: tearing down
	}
	var drained []TaskResult // owner: this loop
	for {
		if drained = DrainCompletions(rts.Completions(), drained); len(drained) == 0 {
			return // the RTS stopped
		}
		// Each result finds its task in the registry, under one hold of am.mu
		// per drain, and is kept only if it clears the task's in-flight mark.
		// A result no mark is left for — a second report of one attempt, one
		// of a task failover has already taken back, or one naming no task —
		// is dropped.
		b := e.spareDone()
		b.items = slices.Grow(b.items, len(drained))
		e.am.mu.Lock()
		for _, r := range drained {
			if t := e.am.tasks[r.UID]; t != nil && t.inflight.CompareAndSwap(true, false) {
				b.items = append(b.items, doneItem{task: t, res: r})
			}
		}
		e.am.mu.Unlock()
		if len(b.items) == 0 {
			e.recycle(b)
			continue
		}
		if err := doneP.PublishValue(b); err != nil {
			return // broker closed: tearing down
		}
	}
}

// heartbeatLoop probes RTS liveness every HeartbeatInterval of virtual time.
func (e *execManager) heartbeatLoop(ctx context.Context) {
	defer e.wg.Done()
	for {
		select {
		case <-e.stopCh:
			return
		case <-ctx.Done():
			return
		case <-e.am.clock.After(e.am.cfg.HeartbeatInterval):
			rts := e.currentRTS()
			if rts == nil || rts.Alive() {
				continue
			}
			if err := e.failover(ctx, rts); err != nil {
				e.am.finish(err)
				return
			}
		}
	}
}

// failover implements the paper's RTS failure model: "EnTK purges any
// process left over by the failed RTS, starts a new instance of the RTS,
// acquires new pilot resources, and restarts executing the ensemble until
// completion", losing "only those tasks that were in execution at the time
// of the RTS failure".
func (e *execManager) failover(ctx context.Context, failed RTS) error {
	e.mu.Lock()
	if e.rts != failed {
		e.mu.Unlock()
		return nil // already replaced
	}
	e.restarts++
	if e.restarts > e.am.cfg.RTSRestarts {
		e.mu.Unlock()
		return fmt.Errorf("core: RTS failed %d times; restart budget exhausted", e.restarts)
	}
	e.rts = nil
	cbDone := e.cbDone
	e.mu.Unlock()

	failed.Stop() //nolint:errcheck // purge the dead RTS

	// Results the dead RTS delivered before it died may still sit in its
	// completion channel. Its callbackLoop forwards them and returns once the
	// stopped RTS has closed the channel; only then is a task still marked
	// in flight one that was never reported — counting a reported one as
	// lost would run it twice and commit its result against the retry.
	select {
	case <-cbDone:
	case <-e.stopCh:
		return nil // tearing down
	}

	// The lost tasks: submitted to the dead RTS, never reported back.
	var lost []*Task
	e.submitMu.Lock()
	e.am.mu.Lock()
	for _, t := range e.am.tasks {
		if t.inflight.CompareAndSwap(true, false) {
			lost = append(lost, t)
		}
	}
	e.am.mu.Unlock()
	e.submitMu.Unlock()

	fresh, err := e.am.rtsFactory(e.am.res)
	if err != nil {
		return fmt.Errorf("core: rts factory on restart: %w", err)
	}
	if err := fresh.Start(ctx); err != nil {
		fresh.Stop() //nolint:errcheck // release what the failed Start acquired
		return fmt.Errorf("core: rts restart: %w", err)
	}
	// stopRTS stops the instance it finds under e.mu, after stopCh is closed:
	// either it will find this one, or this one is stopped here.
	freshDone := make(chan struct{})
	e.mu.Lock()
	select {
	case <-e.stopCh:
		e.mu.Unlock()
		fresh.Stop() //nolint:errcheck
		return nil
	default:
	}
	e.rts, e.cbDone = fresh, freshDone
	e.rtsReady.Broadcast()
	e.mu.Unlock()
	e.wg.Add(1)
	go e.callbackLoop(fresh, freshDone)

	// Re-inject lost tasks through the normal path: their in-flight
	// attempt failed through no fault of their own, so the RTS restart
	// does not consume the tasks' own retry budget — they are marked
	// failed by the restart and rescheduled immediately.
	for _, t := range lost {
		if err := e.reinject(t); err != nil {
			return err
		}
	}
	return nil
}

// reinject commits one lost task's failed attempt and its rescheduling as
// one sync frame, then republishes it. The frame's four records are applied
// one by one, and between FAILED and SCHEDULING every task of the stage can
// read terminal; completionMu is held throughout, as in settleFailures, so no
// stage-completion check runs on that instant and fails a stage whose task is
// on its way back.
func (e *execManager) reinject(t *Task) error {
	if e.hbSync == nil {
		// During tear-down the queue may already be deleted; the broker then
		// refuses the consumer and failover ends on that error.
		c, err := newSyncClient(e.am, qAckHb)
		if err != nil {
			return err
		}
		e.hbSync = c
	}
	e.am.completionMu.Lock()
	defer e.am.completionMu.Unlock()
	one := []*Task{t} // the frame's task list, then its pending message
	e.hbSync.begin()
	e.hbSync.addResult(one, TaskExecuted, -1, "rts failure")
	e.hbSync.addTasks(one, TaskFailed)
	e.hbSync.addTasks(one, TaskScheduling)
	e.hbSync.addTasks(one, TaskScheduled)
	if err := e.hbSync.flush(); err != nil {
		return err
	}
	return e.am.brk.PublishValue(e.am.qname(qPending), &one)
}

// Restarts reports how many times the RTS was restarted.
func (e *execManager) Restarts() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.restarts
}

// stop tears down subcomponents and the RTS.
func (e *execManager) stop() {
	e.stopComponentsOnly()
	e.stopRTS()
}

// stopComponentsOnly cancels the Emgr/Callback/Heartbeat subcomponents but
// leaves the RTS running (its tear-down is measured separately).
func (e *execManager) stopComponentsOnly() {
	e.stopOnce.Do(func() {
		close(e.stopCh)
		e.mu.Lock()
		e.rtsReady.Broadcast()
		e.mu.Unlock()
	})
	if e.pendC != nil {
		e.pendC.Cancel()
	}
	// Callback loops exit when the RTS closes Completions (stopRTS) or the
	// broker closes. Sync clients are closed after the wait in stopRTS.
}

// stopRTS shuts the runtime system down and waits for subcomponents.
func (e *execManager) stopRTS() {
	rts := e.currentRTS()
	if rts != nil {
		rts.Stop() //nolint:errcheck
	}
	e.wg.Wait()
	if e.emgrSync != nil {
		e.emgrSync.close()
	}
	if e.hbSync != nil {
		e.hbSync.close()
	}
}
