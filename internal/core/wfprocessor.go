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
// resubmission policy and advances stages and pipelines. Dequeue is the one
// goroutine that decides a stage or pipeline is over, runs PostExec, moves
// cursors and finishes a successful run; the rest hand it what may be over
// on the done queue (AppManager.settle), so no lock orders them.
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
	// pipes is the enqueue loop's copy of the registered pipelines, refilled
	// on every pass.
	pipes []*Pipeline

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
	if w.am.recov.Resumed && w.am.allPipelinesTerminal() {
		// Every pipeline was restored CANCELED: no result will come to end
		// the run.
		w.am.finish(nil)
	}
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
	w.pipes = w.am.appendPipelines(w.pipes[:0])
	for _, p := range w.pipes {
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
			// Past its last stage yet scheduling: it was paused when that
			// stage ended and has been resumed since (completePipeline).
			if err := w.am.settle(p.lastStage()); err != nil {
				return err
			}
			continue
		}
		switch stage.State() {
		case StageInitial:
		case StageCanceled:
			// Restored CANCELED (openDurable) by a cancel that stopped before
			// its pipeline's CANCELED: finish it as maybeCompleteStage would.
			if err := w.enqSync.pipeline(p, PipelineCanceled); err != nil {
				return err
			}
			if err := w.am.settle(p.lastStage()); err != nil {
				return err
			}
			continue
		default:
			continue // already scheduled; Dequeue owns its completion
		}
		if err := w.scheduleStage(stage); err != nil {
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
	// Dequeue checks whether that was the last pipeline, and its nudge
	// cascades to this pipeline's own dependents.
	return w.am.settle(p.lastStage())
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
// pending queue (paper Fig 2, arrow 1), in chunks of at most BatchSize tasks
// so the Emgr's batch granularity is controllable. The chunk size is the live
// batch knob: one atomic load per stage-scheduling decision.
func (w *wfProcessor) scheduleStage(stage *Stage) error {
	runnable := freshTasks(stage)
	chunk := w.am.live.BatchSize()
	first := runnable[:min(chunk, len(runnable))]
	// Both stage transitions and the first chunk's two bulk task transitions
	// ride a single sync frame. Tasks must be in SCHEDULED before their
	// pending messages become visible, or the Emgr can race past its
	// transitions — the frame's ack guarantees its commits precede the publish
	// below, and puts the stage's SCHEDULED ahead of anything the Emgr or
	// Dequeue commit for its tasks.
	w.enqSync.begin()
	w.enqSync.add(stageRequest(stage, StageScheduling))
	w.enqSync.addTasks(first, TaskScheduling)
	w.enqSync.addTasks(first, TaskScheduled)
	w.enqSync.add(stageRequest(stage, StageScheduled))
	if err := w.enqSync.flush(); err != nil {
		return err
	}
	if len(runnable) == 0 {
		// Every task was terminal before scheduling (journal recovery): no
		// result will ever arrive to make Dequeue settle the stage.
		return w.am.settle(stage)
	}
	if len(runnable) <= chunk {
		// The stage's own pending list is the one message.
		stage.pending = runnable
		return w.pendP.PublishValue(&stage.pending)
	}
	return w.streamStage(stage, runnable, chunk)
}

// streamStage publishes a stage wider than one chunk, whose first chunk is
// committed, in parts of 1, 1, 2, 4, … chunks: a part's chunks go out as one
// batch publish, and then the next part's frame, which carries only its
// tasks' two transitions, is committed. The RTS starts on the first chunk
// while the rest commit, and a 16-chunk stage costs five frames instead of
// one. A stage canceled between two parts stops there: none of the rest is
// published. The chunks are slices of runnable, made in one allocation with
// the values that point at them.
func (w *wfProcessor) streamStage(stage *Stage, runnable []*Task, chunk int) error {
	n := (len(runnable) + chunk - 1) / chunk
	chunks, values := make([][]*Task, n), make([]any, n)
	for i := range chunks {
		chunks[i] = runnable[i*chunk : min((i+1)*chunk, len(runnable))]
		values[i] = &chunks[i]
	}
	for start := 0; start < n; {
		end := min(start+max(start, 1), n)
		if start > 0 {
			if w.am.partHook != nil {
				w.am.partHook()
			}
			if stage.State().Terminal() {
				return nil // canceled; the cancel handed Dequeue the stage
			}
			part := runnable[start*chunk : min(end*chunk, len(runnable))]
			w.enqSync.begin()
			w.enqSync.addTasks(part, TaskScheduling)
			w.enqSync.addTasks(part, TaskScheduled)
			if err := w.enqSync.flush(); err != nil {
				return err
			}
		}
		if err := w.pendP.PublishValues(values[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
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
		// The batch is valid until the next receive, which refills it:
		// handleResultBatch settles it and is done with it before that.
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
// cancellations (rare) keep their exit codes and the resubmission policy
// per task. It is the one place stages and pipelines are settled: those its
// results finish, and those a message names (AppManager.settle).
func (w *wfProcessor) handleResultBatch(batch []*broker.Delivery) error {
	succeeded := w.succeeded[:0] // owner: the dequeue loop
	w.affected = w.affected[:0]
	var failures []failedAttempt
	var canceled []*Task
	for _, d := range batch {
		b := d.Value.(*doneBatch)
		if b.stage != nil {
			w.settledStage(b.stage)
		}
		for _, it := range b.items {
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
				failures = append(failures, failedAttempt{t: t, res: it.res, lost: it.lost})
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
	// the batch settled; failures (rare) follow in a frame of their own
	// (settleFailures) so exit codes and the resubmission policy stay
	// per-task.
	w.deqSync.begin()
	w.deqSync.addTasks(succeeded, TaskExecuted)
	w.deqSync.addTasks(succeeded, TaskDone)
	w.deqSync.addTasks(canceled, TaskExecuted)
	w.deqSync.addTasks(canceled, TaskCanceled)
	if err := w.deqSync.flush(); err != nil {
		return err
	}
	for _, t := range succeeded {
		w.settledStage(t.parentStage())
	}
	for _, t := range canceled {
		w.settledStage(t.parentStage())
	}
	if len(failures) > 0 {
		if err := w.settleFailures(failures); err != nil {
			return err
		}
	}
	ended := false
	for _, stage := range w.affected {
		if err := w.maybeCompleteStage(stage); err != nil {
			return err
		}
		p := stage.pipeline()
		if err := w.completePipeline(p); err != nil {
			return err
		}
		ended = ended || p.State().Terminal()
	}
	if !ended {
		return nil
	}
	if w.am.allPipelinesTerminal() {
		w.am.finish(nil)
	}
	w.nudge() // pipelines that declared an ended one as a predecessor
	return nil
}

// failedAttempt is one task attempt the RTS reported failed, or lost.
type failedAttempt struct {
	t    *Task
	res  TaskResult
	lost bool
}

// settleFailures commits each failed attempt and applies the resubmission
// policy (paper §II-A): failed tasks are resubmitted up to the configured
// budget without restarting completed tasks, and a task lost with its RTS
// (§II-B4) is resubmitted whatever its budget. The failures, and the
// rescheduling of those resubmitted, ride one sync frame; no stage of theirs
// is checked for completion before it has committed, since only this
// goroutine checks.
func (w *wfProcessor) settleFailures(failures []failedAttempt) error {
	tasks := make([]*Task, len(failures)) // the frame's task lists
	var retry []*Task                     // and then the retries' pending message
	w.deqSync.begin()
	for i, f := range failures {
		tasks[i] = f.t
		w.deqSync.addResult(tasks[i:i+1], TaskExecuted, f.res.ExitCode, f.res.Error)
		switch {
		case !f.lost && f.t.Attempts() > w.am.retriesFor(f.t):
			w.settledStage(f.t.parentStage()) // out of retries: its stage may be over
		case !f.t.parentStage().State().Terminal():
			retry = append(retry, f.t)
		}
		// Otherwise a CancelPipeline settled the stage under it: the retry is
		// moot. If the cancel lands while the frame commits, the Synchronizer's
		// sticky cancel absorbs the rescheduling and the Emgr drops the task.
	}
	w.deqSync.addTasks(tasks, TaskFailed)
	// As in scheduleStage, a retried task reaches SCHEDULED before its pending
	// message is published.
	w.deqSync.addTasks(retry, TaskScheduling)
	w.deqSync.addTasks(retry, TaskScheduled)
	if err := w.deqSync.flush(); err != nil {
		return err
	}
	if len(retry) == 0 {
		return nil
	}
	return w.pendP.PublishValue(&retry)
}

// settledStage notes that stage may be over after this drain: it joins
// affected, once.
func (w *wfProcessor) settledStage(stage *Stage) {
	for _, s := range w.affected {
		if s == stage {
			return
		}
	}
	w.affected = append(w.affected, stage)
}

// maybeCompleteStage finishes a stage whose tasks are all terminal, runs its
// PostExec hook, and advances the owning pipeline, or fails or cancels it.
func (w *wfProcessor) maybeCompleteStage(stage *Stage) error {
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
	if err := w.deqSync.stage(stage, target); err != nil {
		return err
	}
	if stage.State() != target {
		// The request was absorbed by a concurrent CancelPipeline (the
		// Synchronizer skip-acks completions of canceled stages): the
		// cancellation hands its pipeline over itself, so neither PostExec
		// nor the cursor may run here.
		return nil
	}
	p := stage.pipeline()

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
		if err := w.deqSync.pipeline(p, pTarget); err != nil {
			return err
		}
		// Check the committed state, not the request: a concurrent cancel
		// absorbs the FAILED request, and a canceled pipeline is not a
		// run-failing condition.
		if p.State() == PipelineFailed {
			w.am.setErr(fmt.Errorf("core: pipeline %s (%s) failed at stage %s",
				p.UID, p.Name, stage.UID))
		}
	} else if p.CurrentStageIndex() < p.StageCount()-1 {
		p.advanceCursor()
		w.nudge()
	}
	return nil
}

// completePipeline finishes a scheduling pipeline whose last stage is DONE,
// and leaves any other as it is. It commits the pipeline's DONE before it
// moves the cursor past that stage, so Enqueue never finds a scheduling
// pipeline past its last stage and hands it back. A pipeline paused while
// its last stage ran moves past it at once; Resume's nudge then makes
// Enqueue hand it back, and it completes here.
func (w *wfProcessor) completePipeline(p *Pipeline) error {
	if s := p.currentStage(); s != nil && (s.State() != StageDone || p.CurrentStageIndex() < p.StageCount()-1) {
		return nil // failed, canceled, or stages still to run
	}
	if p.State() != PipelineScheduling {
		p.advanceCursor()
		if p.State() != PipelineScheduling { // not resumed meanwhile
			return nil
		}
	}
	err := w.deqSync.pipeline(p, PipelineDone)
	p.advanceCursor()
	return err
}

// settle hands Dequeue a done message that names a stage that may be over,
// or the last stage of a pipeline that may be, and carries no results:
// Dequeue settles the stage and its pipeline like one it finished itself.
func (am *AppManager) settle(stage *Stage) error {
	b := am.emgr.spareDone(0)
	b.stage = stage
	return am.brk.PublishValue(am.qname(qDone), b)
}
