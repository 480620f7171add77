package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/broker"
)

// ErrAlreadyRan is returned by Start (and Run) when the AppManager has
// already executed: an AppManager is single-shot, and the run handle owns
// all teardown, so a second start would race the first run's resources.
var ErrAlreadyRan = errors.New("core: AppManager already ran (Start/Run are single-shot)")

// CancelError is the error a run finishes with after Run.Cancel. It unwraps
// to context.Canceled so existing errors.Is checks keep working.
type CancelError struct{ Reason string }

// Error implements error.
func (e *CancelError) Error() string {
	if e.Reason == "" {
		return "core: run canceled"
	}
	return "core: run canceled: " + e.Reason
}

// Unwrap makes errors.Is(err, context.Canceled) hold for canceled runs.
func (e *CancelError) Unwrap() error { return context.Canceled }

// Run is the handle for one execution of an AppManager. Start returns it
// once setup (validation, registration, messaging, components, RTS
// acquisition) has succeeded; the ensemble then executes in the background.
// The handle is the single owner of engine teardown: Wait blocks until the
// application reaches a terminal state and every component is stopped.
type Run struct {
	am       *AppManager
	cancelFn context.CancelCauseFunc
	finished chan struct{}
	err      error
}

// Wait blocks until the run is over — every pipeline terminal (or the run
// canceled/failed) and the engine torn down — and returns the run's error.
// It is safe to call from multiple goroutines and after completion.
func (r *Run) Wait() error {
	<-r.finished
	return r.err
}

// Done returns a channel closed when the run (including teardown) finishes.
func (r *Run) Done() <-chan struct{} { return r.finished }

// Cancel aborts the whole run: every non-terminal entity is marked
// CANCELED and the engine tears down. Wait then returns a *CancelError
// carrying reason (it unwraps to context.Canceled). Canceling a finished
// run is a no-op.
func (r *Run) Cancel(reason string) {
	r.cancelFn(&CancelError{Reason: reason})
}

// Snapshot returns a point-in-time Progress view of the run.
func (r *Run) Snapshot() Progress { return r.am.Snapshot() }

// Events returns a filtered stream of lifecycle transitions and a cancel
// function, the minimal subscription surface. The stream follows the
// slow-subscriber policy documented on EventFilter: bounded buffering,
// drop-oldest, never back-pressures the engine. For access to the Dropped
// counter, use Subscribe. Subscriptions taken after Start may miss
// transitions committed before they attach; attach via
// AppManager.Subscribe before Start when completeness matters.
func (r *Run) Events(f EventFilter) (<-chan Event, func()) {
	sub := r.am.Subscribe(f)
	return sub.C(), sub.Close
}

// Subscribe attaches a typed event subscription to the running application.
func (r *Run) Subscribe(f EventFilter) *EventSub { return r.am.Subscribe(f) }

// Pause suspends one pipeline: its in-flight stage finishes, but no further
// stage is scheduled until Resume. The transition is committed by the
// Synchronizer (journaled, mirrored, published) like any other. Pausing is
// legal only for a pipeline in SCHEDULING; pausing a pipeline that has not
// started or has finished returns the Synchronizer's rejection.
func (r *Run) Pause(pipelineUID string) error {
	p, ok := r.am.pipelineByUID(pipelineUID)
	if !ok {
		return fmt.Errorf("core: unknown pipeline %s", pipelineUID)
	}
	r.am.ctlMu.Lock()
	defer r.am.ctlMu.Unlock()
	return r.am.ctlRequest(pipelineRequest(p, PipelineSuspended))
}

// Resume reactivates a paused pipeline and wakes the scheduler; if the
// pipeline finished its last stage while suspended, resuming completes it.
func (r *Run) Resume(pipelineUID string) error {
	p, ok := r.am.pipelineByUID(pipelineUID)
	if !ok {
		return fmt.Errorf("core: unknown pipeline %s", pipelineUID)
	}
	r.am.ctlMu.Lock()
	err := r.am.ctlRequest(pipelineRequest(p, PipelineScheduling))
	r.am.ctlMu.Unlock()
	if err != nil {
		return err
	}
	r.am.Nudge()
	return nil
}

// ctlRequest sends one transition as its own frame through the run handle's
// synchronizer client, which is made here on first use — most runs see no
// Pause, Resume or CancelPipeline. ctlMu must be held. Once supervise has
// begun tear-down the answer is broker.ErrClosed: no consumer is attached to
// a queue that is about to be deleted.
func (am *AppManager) ctlRequest(req stateRequest) error {
	if am.ctlClosed {
		return broker.ErrClosed
	}
	if am.ctl == nil {
		c, err := newSyncClient(am, qAckCtl)
		if err != nil {
			return err
		}
		am.ctl = c
	}
	return am.ctl.request(req)
}

// CancelPipeline cancels one pipeline without touching its siblings: every
// non-terminal task and stage is marked CANCELED, then the pipeline itself.
// Cancellation is idempotent and sticky — late completions of already
// submitted tasks are discarded — and pipelines depending on the canceled
// one are canceled by the usual dependency cascade. The run as a whole
// continues; it finishes successfully once the remaining pipelines do.
func (r *Run) CancelPipeline(pipelineUID string) error {
	p, ok := r.am.pipelineByUID(pipelineUID)
	if !ok {
		return fmt.Errorf("core: unknown pipeline %s", pipelineUID)
	}
	return r.am.cancelPipeline(p)
}

// pipelineByUID resolves a registered pipeline.
func (am *AppManager) pipelineByUID(uid string) (*Pipeline, bool) {
	am.mu.Lock()
	defer am.mu.Unlock()
	if p, ok := am.pipes[uid]; ok {
		return p, true
	}
	for _, p := range am.pipelines {
		if p.UID == uid {
			return p, true
		}
	}
	return nil, false
}

// cancelPipeline drives one pipeline (tasks, then stages, then the pipeline
// itself) to CANCELED through the Synchronizer. The Synchronizer treats
// cancellation as idempotent, so races with concurrent completion are
// benign: whichever transition commits first wins and the loser is a no-op.
func (am *AppManager) cancelPipeline(p *Pipeline) error {
	// Only what is not yet settled is requested, so canceling a pipeline again
	// — even after the run is over — sends nothing and succeeds.
	am.ctlMu.Lock()
	for _, s := range p.Stages() {
		var live []*Task
		for _, t := range s.Tasks() {
			// FAILED is included: a failed task awaiting resubmission must
			// be canceled too, or the Dequeue's retry path could revive it
			// inside the canceled pipeline (FAILED→CANCELED is legal).
			if st := t.State(); st != TaskDone && st != TaskCanceled {
				live = append(live, t)
			}
		}
		if len(live) > 0 {
			if err := am.ctlRequest(taskBatchRequest(live, TaskCanceled)); err != nil {
				am.ctlMu.Unlock()
				return err
			}
		}
		if !s.State().Terminal() {
			if err := am.ctlRequest(stageRequest(s, StageCanceled)); err != nil {
				am.ctlMu.Unlock()
				return err
			}
		}
	}
	var err error
	if !p.State().Terminal() {
		err = am.ctlRequest(pipelineRequest(p, PipelineCanceled))
	}
	am.ctlMu.Unlock()
	if err != nil {
		return err
	}
	am.completionMu.Lock()
	if am.allPipelinesTerminal() {
		am.finishLocked()
	}
	am.completionMu.Unlock()
	am.Nudge() // dependents must observe the terminal state
	return nil
}

// Start executes the application in the background and returns its run
// handle. Setup — validation, entity registration, journal recovery,
// messaging topology, component spawn and RTS acquisition — happens
// synchronously, so a Start that returns nil error has a live ensemble. A
// second Start (or Run) returns ErrAlreadyRan.
func (am *AppManager) Start(ctx context.Context) (*Run, error) {
	am.mu.Lock()
	if am.running {
		am.mu.Unlock()
		return nil, ErrAlreadyRan
	}
	am.running = true
	am.mu.Unlock()

	if err := am.setup(ctx); err != nil {
		am.events.closeAll()
		return nil, err
	}

	runCtx, cancel := context.WithCancelCause(ctx)
	r := &Run{am: am, cancelFn: cancel, finished: make(chan struct{})}

	if err := am.emgr.start(runCtx); err != nil {
		cancel(nil)
		am.stopComponents()
		am.closeJournal()
		am.events.closeAll()
		return nil, err
	}
	if err := am.wfp.start(runCtx); err != nil {
		cancel(nil)
		am.emgr.stop()
		am.stopComponents()
		am.closeJournal()
		am.events.closeAll()
		return nil, err
	}

	// The autotune controller (if enabled) starts last: its sampler reads
	// the broker and the RTS, both live by now.
	am.startAutotune()

	go r.supervise(runCtx)
	return r, nil
}

// setup performs the synchronous part of Start up to component spawn: the
// paper's EnTK Setup phase.
func (am *AppManager) setup(ctx context.Context) error {
	if err := am.validateApp(); err != nil {
		return err
	}
	if err := am.registerEntities(); err != nil {
		return err
	}
	if am.cfg.JournalDir != "" {
		// Durable mode: segmented journal + statedb mirror + snapshots.
		// Recovers snapshot + journal tail; a fresh directory is an empty
		// recovery (Resumed=false) and behaves like a durable first run.
		if err := am.openDurable(); err != nil {
			return err
		}
	}
	if am.cfg.StateStore != nil {
		if err := am.recoverFromStateStore(); err != nil {
			am.closeJournal()
			return err
		}
	}

	if err := am.declareTopology(); err != nil {
		am.stopComponents()
		am.closeJournal()
		return err
	}

	// Spawn Synchronizer, WFProcessor (Enqueue, Dequeue) and ExecManager
	// (Rmgr, Emgr, RTS Callback, Heartbeat): 2 components + 7
	// subcomponents, matching Fig 2.
	am.sync = newSynchronizer(am)
	am.wfp = newWFProcessor(am)
	am.emgr = newExecManager(am)
	am.spawnCost(9)

	if err := am.sync.start(); err != nil {
		am.stopComponents()
		am.closeJournal()
		return err
	}
	return nil
}

// supervise waits for the application to finish (or the run context to
// cancel — externally via the parent, or through Run.Cancel), then tears
// the engine down in the paper's order. It owns the whole teardown: Wait
// returns only after it completes, and every step is single-shot because
// supervise runs exactly once per AppManager.
func (r *Run) supervise(runCtx context.Context) {
	am := r.am
	var err error
	select {
	case <-am.doneCh:
		err = am.takeErr()
	case <-runCtx.Done():
		err = context.Cause(runCtx)
		am.cancelRemainingTasks()
	}
	r.cancelFn(nil) // release the derived context

	// ---- Tear-down ------------------------------------------------------
	// The controller stops first so no sample races a closing broker or a
	// stopping RTS.
	am.stopAutotune()
	am.wfp.stop()
	am.emgr.stopComponentsOnly()
	// Waits out a Pause/Resume/CancelPipeline in flight — the Synchronizer is
	// still there to answer it — and refuses every later one.
	am.ctlMu.Lock()
	am.ctlClosed = true
	if am.ctl != nil {
		am.ctl.close()
	}
	am.ctlMu.Unlock()
	am.sync.stop()
	am.teardownCost(9)
	am.releaseBroker()

	// RTS tear-down is measured by the RTS itself (black box).
	am.emgr.stopRTS()
	am.closeJournal()
	am.events.closeAll()

	r.err = err
	close(r.finished)
}
