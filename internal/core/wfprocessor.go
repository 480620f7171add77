package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/broker"
	"repro/internal/profiler"
)

// A pending message is a chunk of tasks (*[]*Task) that the Emgr translates
// to RTS descriptions; the chunk is never written again once published. A
// message may carry a whole stage's tasks — EnTK's bulk messages keep queue
// traffic O(stages), not O(tasks).

// dequeueBatch bounds how many done-queue messages Dequeue settles per
// broker round-trip (it is a message bound, not a task bound: each message
// may carry a whole stage's results).
const dequeueBatch = 512

// wfProcessor is the Workflow-Management-layer component with the Enqueue
// and Dequeue subcomponents (paper Fig 2). Enqueue walks the application,
// tags runnable tasks and pushes them to the pending queue; Dequeue pulls
// completed tasks from the done queue, finalizes their states, applies the
// resubmission policy and advances stages and pipelines.
type wfProcessor struct {
	am *AppManager

	nudgeCh chan struct{}
	doneC   *broker.Consumer
	pendP   *broker.Producer
	enqSync *syncClient
	deqSync *syncClient

	// Scratch of the dequeue loop's goroutine: the drain's succeeded tasks (the
	// other outcomes are rare and allocate when they occur), and the distinct
	// stages it settled tasks of.
	succeeded []*Task
	affected  []*Stage

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

func newWFProcessor(am *AppManager) *wfProcessor {
	return &wfProcessor{
		am:      am,
		nudgeCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
	}
}

func (w *wfProcessor) start(ctx context.Context) error {
	var err error
	if w.enqSync, err = newSyncClient(w.am, qAckEnq); err != nil {
		return err
	}
	if w.deqSync, err = newSyncClient(w.am, qAckDeq); err != nil {
		return err
	}
	// Pull-mode consumer: Dequeue drains completions in batches, paying one
	// broker round-trip per drained batch instead of one per message.
	if w.doneC, err = w.am.brk.ConsumeBatch(w.am.qname(qDone), dequeueBatch); err != nil {
		return err
	}
	// Shard-pinned producer: on a sharded pending queue, everything Enqueue
	// publishes lands on one shard in call order, so the Emgr observes this
	// producer's messages in publish order (per-producer FIFO).
	if w.pendP, err = w.am.brk.Producer(w.am.qname(qPending)); err != nil {
		return err
	}
	// The fixed application-processing cost: translating the workflow into
	// executable bookkeeping. This dominates EnTK Management Overhead and
	// is what makes it near-invariant with task count (paper Figs 7-8).
	if base := w.am.host.MgmtBase; base > 0 {
		w.am.clock.Sleep(base)
		w.am.prof.Add(profiler.EnTKManagement, base)
	}
	w.wg.Add(2)
	go w.enqueueLoop(ctx)
	go w.dequeueLoop(ctx)
	w.nudge()
	return nil
}

func (w *wfProcessor) stop() {
	w.stopOnce.Do(func() { close(w.stopCh) })
	if w.doneC != nil {
		w.doneC.Cancel()
	}
	w.wg.Wait()
	if w.enqSync != nil {
		w.enqSync.close()
	}
	if w.deqSync != nil {
		w.deqSync.close()
	}
}

// nudge wakes the enqueue loop; it is called at start, whenever a stage
// completes, and when an adaptive pipeline resumes.
func (w *wfProcessor) nudge() {
	select {
	case w.nudgeCh <- struct{}{}:
	default:
	}
}

func (w *wfProcessor) enqueueLoop(ctx context.Context) {
	defer w.wg.Done()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ctx.Done():
			return
		case <-w.nudgeCh:
			if err := w.enqueueRunnable(); err != nil {
				w.am.finish(err)
				return
			}
		}
	}
}

// enqueueRunnable walks every pipeline and schedules whatever is runnable.
func (w *wfProcessor) enqueueRunnable() error {
	for _, p := range w.am.Pipelines() {
		switch p.State() {
		case PipelineInitial:
			// Pipeline-group dependencies (§II-B1): hold the pipeline until
			// its predecessors finish; cancel it when a predecessor failed.
			ready, blocked := p.depsStatus()
			if blocked {
				if err := w.cancelUnstarted(p); err != nil {
					return err
				}
				continue
			}
			if !ready {
				continue
			}
			if err := w.enqSync.pipeline(p, PipelineScheduling); err != nil {
				return err
			}
		case PipelineScheduling:
		default:
			continue // suspended or terminal
		}
		stage := p.currentStage()
		if stage == nil {
			// Cursor past the last stage (can happen after recovery).
			if err := w.completePipeline(p, w.enqSync); err != nil {
				return err
			}
			continue
		}
		if stage.State() != StageInitial {
			continue // already scheduled; Dequeue owns its completion
		}
		if err := w.scheduleStage(p, stage); err != nil {
			return err
		}
	}
	return nil
}

// cancelUnstarted cancels a pipeline that never left its initial state
// (because a predecessor failed or was canceled), together with all its
// stages and tasks. Cancellation cascades: pipelines depending on this one
// observe its CANCELED state on the next enqueue pass.
func (w *wfProcessor) cancelUnstarted(p *Pipeline) error {
	// The whole cascade — every stage's fresh tasks, the stages themselves
	// and the pipeline — rides one sync frame.
	w.enqSync.begin()
	for _, s := range p.Stages() {
		w.enqSync.addTasks(freshTasks(s), TaskCanceled)
		if s.State() == StageInitial {
			w.enqSync.add(stageRequest(s, StageCanceled))
		}
	}
	w.enqSync.add(pipelineRequest(p, PipelineCanceled))
	if err := w.enqSync.flush(); err != nil {
		return err
	}
	w.am.completionMu.Lock()
	defer w.am.completionMu.Unlock()
	if w.am.allPipelinesTerminal() {
		w.am.finishLocked()
	}
	w.nudge() // cascade to this pipeline's own dependents
	return nil
}

// freshTasks returns the stage's tasks still in their initial state — the
// others were recovered as DONE or already processed. Nothing writes the
// returned slice again, so pending messages can carry chunks of it: it is the
// stage's own task list when every task is fresh (the stage leaves its
// initial state before any more could join), a copy of the fresh ones when
// some are not.
func freshTasks(stage *Stage) []*Task {
	all := stage.taskList()
	for i, t := range all {
		if t.State() != TaskInitial {
			fresh := all[:i:i]
			for _, t := range all[i+1:] {
				if t.State() == TaskInitial {
					fresh = append(fresh, t)
				}
			}
			return fresh
		}
	}
	return all
}

// scheduleStage tags a stage's unscheduled tasks and pushes them to the
// pending queue (paper Fig 2, arrow 1).
func (w *wfProcessor) scheduleStage(p *Pipeline, stage *Stage) error {
	runnable := freshTasks(stage)
	// Both stage transitions and both bulk task transitions ride a single
	// sync frame: scheduling a stage costs one synchronization round-trip
	// regardless of task count. Tasks must be in SCHEDULED before their
	// pending messages become visible, or the Emgr can race past its
	// transitions — the frame's ack guarantees all four commits precede the
	// publish below, and puts the stage's SCHEDULED ahead of anything the
	// Emgr or Dequeue commit for its tasks.
	w.enqSync.begin()
	w.enqSync.add(stageRequest(stage, StageScheduling))
	w.enqSync.addTasks(runnable, TaskScheduling)
	w.enqSync.addTasks(runnable, TaskScheduled)
	w.enqSync.add(stageRequest(stage, StageScheduled))
	if err := w.enqSync.flush(); err != nil {
		return err
	}
	if len(runnable) > 0 {
		// The whole stage goes out as one batch publish. The tasks are
		// chunked into messages of at most BatchSize tasks so the Emgr's
		// batch granularity is controllable, but however many messages that
		// yields, the broker is traversed once. A chunk is a slice of
		// runnable, and the stage's chunks are made in one allocation; the
		// values the broker is handed stay on this stack when there are
		// few. The chunk size is the live batch knob: one atomic load per
		// stage-scheduling decision.
		chunk := w.am.live.BatchSize()
		chunks := make([][]*Task, 0, (len(runnable)+chunk-1)/chunk)
		var few [4]any
		values := few[:0]
		for start := 0; start < len(runnable); start += chunk {
			chunks = append(chunks, runnable[start:min(start+chunk, len(runnable))])
			values = append(values, &chunks[len(chunks)-1])
		}
		if err := w.pendP.PublishValues(values); err != nil {
			return err
		}
	}
	// Completion check under the stage's own sync client: when every task was
	// already terminal before scheduling (journal recovery) no result will
	// ever arrive to make Dequeue run it.
	return w.maybeCompleteStage(p, stage, w.enqSync)
}

func (w *wfProcessor) dequeueLoop(ctx context.Context) {
	defer w.wg.Done()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ctx.Done():
			return
		default:
		}
		// ReceiveBatch pops everything ready (up to dequeueBatch) in one
		// broker round-trip; bulk state updates then keep the dequeue path
		// from serializing tens of thousands of synchronization round trips
		// at scale. Cancellation (stop, broker close) surfaces as an error.
		batch, err := w.doneC.ReceiveBatch(dequeueBatch)
		if err != nil {
			return
		}
		if err := w.handleResultBatch(batch); err != nil {
			w.am.finish(err)
			return
		}
	}
}

// handleResultBatch finalizes a batch of task attempts and drives stage and
// pipeline progression. Successful tasks advance in bulk; failures and
// cancellations (rare) are handled individually so exit codes and the
// resubmission policy stay per-task.
func (w *wfProcessor) handleResultBatch(batch []*broker.Delivery) error {
	succeeded := w.succeeded[:0] // owner: the dequeue loop
	var failures []failedAttempt
	var canceled []*Task
	for _, d := range batch {
		for _, it := range d.Value.(*doneBatch).items {
			t := it.task
			if t.State().Terminal() {
				// Stale result: the task was canceled (e.g. CancelPipeline)
				// after submission and the RTS still reported the attempt.
				// Its stage settled through the cancellation path already.
				continue
			}
			switch {
			case it.res.Canceled:
				canceled = append(canceled, t)
			case it.res.ExitCode == 0:
				succeeded = append(succeeded, t)
			default:
				failures = append(failures, failedAttempt{t: t, res: it.res})
			}
		}
	}
	w.succeeded = succeeded // keep what it grew to
	// Settle the whole drain in one broker round-trip instead of one per
	// message, and hand its messages back for the callback loops to reuse.
	if err := broker.AckBatch(batch); err != nil {
		return err
	}
	for _, d := range batch {
		w.am.emgr.recycle(d.Value.(*doneBatch))
	}

	// The RTS reported these attempts finished: SUBMITTED -> EXECUTED, then
	// the terminal state for this attempt. The whole drain's bulk
	// transitions ride one sync frame — one round-trip however many tasks
	// the batch settled; failures (rare) follow individually (settleFailures)
	// so exit codes and the resubmission policy stay per-task.
	w.deqSync.begin()
	w.deqSync.addTasks(succeeded, TaskExecuted)
	w.deqSync.addTasks(succeeded, TaskDone)
	w.deqSync.addTasks(canceled, TaskExecuted)
	w.deqSync.addTasks(canceled, TaskCanceled)
	if err := w.deqSync.flush(); err != nil {
		return err
	}
	w.affected = w.affected[:0]
	for _, t := range succeeded {
		w.settled(t)
	}
	for _, t := range canceled {
		w.settled(t)
	}
	if len(failures) > 0 {
		if err := w.settleFailures(failures); err != nil {
			return err
		}
	}
	for _, stage := range w.affected {
		if err := w.maybeCompleteStage(stage.pipeline(), stage, w.deqSync); err != nil {
			return err
		}
	}
	return nil
}

// failedAttempt is one task attempt the RTS reported failed.
type failedAttempt struct {
	t   *Task
	res TaskResult
}

// settleFailures commits each failed attempt and applies the resubmission
// policy (paper §II-A): failed tasks are resubmitted up to the configured
// budget without restarting completed tasks. It holds completionMu
// throughout, because between a task's FAILED commit and its resubmission
// every task of its stage can read terminal, and Enqueue's own completion
// check — the one that ends scheduleStage — must not run on that instant: it
// would fail a stage whose last task is about to be retried.
func (w *wfProcessor) settleFailures(failures []failedAttempt) error {
	w.am.completionMu.Lock()
	defer w.am.completionMu.Unlock()
	for _, f := range failures {
		one := []*Task{f.t}
		w.deqSync.begin()
		w.deqSync.addResult(one, TaskExecuted, f.res.ExitCode, f.res.Error)
		w.deqSync.addTasks(one, TaskFailed)
		if err := w.deqSync.flush(); err != nil {
			return err
		}
	}
	for _, f := range failures {
		if f.t.Attempts() <= w.am.retriesFor(f.t) {
			if err := w.resubmit(f.t); err != nil {
				return err
			}
			continue // back in flight; its stage is not terminal yet
		}
		w.settled(f.t)
	}
	return nil
}

// settled notes that one of t's stage's tasks reached the end of its last
// attempt in this drain: the stage joins affected, once.
func (w *wfProcessor) settled(t *Task) {
	stage := t.parentStage()
	for _, s := range w.affected {
		if s == stage {
			return
		}
	}
	w.affected = append(w.affected, stage)
}

// resubmit re-queues a failed task attempt. As in scheduleStage, the task
// reaches SCHEDULED before its pending message is published. A concurrent
// CancelPipeline makes the whole sequence moot: the check below skips the
// common case, and if the cancel lands mid-sequence the Synchronizer's
// sticky-cancel absorbs the transitions and the Emgr drops the message.
func (w *wfProcessor) resubmit(t *Task) error {
	if t.parentStage().State().Terminal() {
		return nil // stage canceled (or settled) under us; retry is moot
	}
	one := []*Task{t} // the frame's task list, then its pending message
	w.deqSync.begin()
	w.deqSync.addTasks(one, TaskScheduling)
	w.deqSync.addTasks(one, TaskScheduled)
	if err := w.deqSync.flush(); err != nil {
		return err
	}
	return w.pendP.PublishValue(&one)
}

// maybeCompleteStage finishes a stage whose tasks are all terminal, runs its
// PostExec hook, and advances the owning pipeline.
func (w *wfProcessor) maybeCompleteStage(p *Pipeline, stage *Stage, sc *syncClient) error {
	w.am.completionMu.Lock()
	defer w.am.completionMu.Unlock()

	if stage.State().Terminal() {
		return nil
	}
	allTerminal, anyFailed, anyCanceled := stage.tasksTerminal()
	if !allTerminal {
		return nil
	}
	target := StageDone
	if anyFailed {
		target = StageFailed
	} else if anyCanceled {
		target = StageCanceled
	}
	if err := sc.stage(stage, target); err != nil {
		return err
	}
	if stage.State() != target {
		// The request was absorbed by a concurrent CancelPipeline (the
		// Synchronizer skip-acks completions of canceled stages): the
		// cancellation path owns the pipeline's terminal settlement, so
		// neither PostExec nor the cursor may run here.
		return nil
	}

	if target == StageDone && stage.PostExec != nil {
		// Adaptivity hook: the decision may append stages to the pipeline.
		before := p.StageCount()
		if err := stage.PostExec(); err != nil {
			return fmt.Errorf("core: stage %s post_exec: %w", stage.UID, err)
		}
		if p.StageCount() > before {
			for _, s := range p.Stages()[before:] {
				w.am.registerLateStage(s)
			}
		}
	}

	if target != StageDone {
		// A failed or canceled stage fails the pipeline: later stages
		// depend on it (the PST ordering).
		pTarget := PipelineFailed
		if target == StageCanceled {
			pTarget = PipelineCanceled
		}
		if err := sc.pipeline(p, pTarget); err != nil {
			return err
		}
		// Check the committed state, not the request: a concurrent cancel
		// absorbs the FAILED request, and a canceled pipeline is not a
		// run-failing condition.
		if p.State() == PipelineFailed {
			w.am.setErr(fmt.Errorf("core: pipeline %s (%s) failed at stage %s",
				p.UID, p.Name, stage.UID))
		}
		if w.am.allPipelinesTerminal() {
			w.am.finishLocked()
		}
		w.nudge() // dependents of p must observe its terminal state
		return nil
	}

	if next := p.advanceCursor(); next != nil {
		w.nudge()
		return nil
	}
	return w.completePipelineLocked(p, sc)
}

// completePipeline finishes a pipeline whose cursor is exhausted.
func (w *wfProcessor) completePipeline(p *Pipeline, sc *syncClient) error {
	w.am.completionMu.Lock()
	defer w.am.completionMu.Unlock()
	return w.completePipelineLocked(p, sc)
}

func (w *wfProcessor) completePipelineLocked(p *Pipeline, sc *syncClient) error {
	if p.State().Terminal() {
		return nil
	}
	if p.State() == PipelineSuspended {
		// The last stage finished while the pipeline was paused: completion
		// is deferred until Resume, whose nudge re-runs the enqueue pass
		// that lands here again with the pipeline back in SCHEDULING.
		return nil
	}
	if err := sc.pipeline(p, PipelineDone); err != nil {
		return err
	}
	if w.am.allPipelinesTerminal() {
		w.am.finishLocked()
	}
	w.nudge() // wake pipelines that declared p as a predecessor
	return nil
}
