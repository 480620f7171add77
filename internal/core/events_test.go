package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/vclock"
)

// taskRank orders the nominal task lifecycle for per-entity ordering
// assertions (no retries in these apps, so ranks strictly increase).
var taskRank = map[string]int{
	string(TaskInitial):    0,
	string(TaskScheduling): 1,
	string(TaskScheduled):  2,
	string(TaskSubmitting): 3,
	string(TaskSubmitted):  4,
	string(TaskExecuted):   5,
	string(TaskDone):       6,
	string(TaskFailed):     6,
	string(TaskCanceled):   6,
}

func startApp(t *testing.T, am *AppManager) *Run {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	r, err := am.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEventStreamObservesFullLifecycle(t *testing.T) {
	am, _ := testApp(t, Config{})
	pipes := buildApp(1, 2, 3, 5*time.Second)
	am.AddPipelines(pipes...)

	sub := am.Subscribe(EventFilter{}) // before Start: no missed events
	r := startApp(t, am)

	var got []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.C() {
			got = append(got, ev)
		}
	}()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	<-done // closed by the bus once the run tears down

	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d events with an active consumer", sub.Dropped())
	}
	perTask := map[string][]Event{}
	kinds := map[EventKind]int{}
	for _, ev := range got {
		kinds[ev.Kind]++
		if ev.Kind == EventTask {
			perTask[ev.UID] = append(perTask[ev.UID], ev)
		}
		if ev.VTime.Before(vclock.Epoch) {
			t.Fatalf("event %+v has pre-epoch VTime", ev)
		}
	}
	if kinds[EventPipeline] == 0 || kinds[EventStage] == 0 || kinds[EventTask] == 0 {
		t.Fatalf("missing kinds: %v", kinds)
	}
	if len(perTask) != 6 {
		t.Fatalf("saw %d tasks, want 6", len(perTask))
	}
	for uid, evs := range perTask {
		// Full nominal path: SCHEDULING..DONE, ranks strictly increasing,
		// From chaining to the previous To.
		if len(evs) != 6 {
			t.Fatalf("task %s: %d events, want 6", uid, len(evs))
		}
		if evs[len(evs)-1].To != string(TaskDone) {
			t.Fatalf("task %s final event %+v", uid, evs[len(evs)-1])
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].From != evs[i-1].To {
				t.Fatalf("task %s: event %d From %s != previous To %s",
					uid, i, evs[i].From, evs[i-1].To)
			}
			if taskRank[evs[i].To] <= taskRank[evs[i-1].To] {
				t.Fatalf("task %s: out-of-order events %v -> %v", uid, evs[i-1], evs[i])
			}
		}
		if evs[0].Pipeline == "" || evs[0].Stage == "" {
			t.Fatalf("task event missing parents: %+v", evs[0])
		}
	}
}

func TestSlowSubscriberDropPolicy(t *testing.T) {
	am, _ := testApp(t, Config{})
	pipes := buildApp(1, 1, 64, time.Second)
	am.AddPipelines(pipes...)

	// A deliberately tiny buffer and a consumer that does not read until the
	// run is over: the scheduler must finish regardless, the Dropped
	// counter must advance, and whatever survives must still be ordered.
	sub := am.Subscribe(EventFilter{Kinds: []EventKind{EventTask}, Buffer: 4})
	r := startApp(t, am)
	if err := r.Wait(); err != nil {
		t.Fatal(err) // a stalled subscriber may never block the run
	}

	var got []Event
	for ev := range sub.C() { // drains the buffer, then closes: run is over
		got = append(got, ev)
	}
	if sub.Dropped() == 0 {
		t.Fatal("dropped counter did not advance for a stalled consumer")
	}
	// 64 tasks x 6 transitions were published into a 4-slot channel: almost
	// everything must have been dropped, the survivors delivered in
	// publication order (TestStalledSubscriberHoldsItsBuffer pins exactly 4).
	if len(got) == 0 || len(got) > 9 {
		t.Fatalf("delivered %d events, want 1..9 (a 4-slot channel)", len(got))
	}
	if uint64(len(got))+sub.Dropped() != 64*6 {
		t.Fatalf("delivered %d + dropped %d != published %d",
			len(got), sub.Dropped(), 64*6)
	}
	seen := map[string]int{}
	for _, ev := range got {
		if prev, ok := seen[ev.UID]; ok && taskRank[ev.To] <= prev {
			t.Fatalf("per-entity order violated after drops: %+v", ev)
		}
		seen[ev.UID] = taskRank[ev.To]
	}
	for _, p := range pipes {
		if p.State() != PipelineDone {
			t.Fatalf("pipeline state = %s", p.State())
		}
	}
}

// TestStalledSubscriberHoldsItsBuffer: a subscription is its channel. A
// consumer that reads nothing until the run is over gets exactly Buffer
// events — the newest, every older one counted as dropped — and subscribing
// starts no goroutine.
func TestStalledSubscriberHoldsItsBuffer(t *testing.T) {
	bus := NewEventBus()
	before := runtime.NumGoroutine()
	subs := make([]*EventSub, 100)
	for i := range subs {
		subs[i] = bus.Subscribe(EventFilter{})
	}
	if n := runtime.NumGoroutine() - before; n > 0 {
		t.Fatalf("100 subscriptions started %d goroutines, want 0", n)
	}
	for _, s := range subs {
		s.Close()
	}

	am, _ := testApp(t, Config{})
	am.AddPipelines(buildApp(1, 1, 64, time.Second)...)
	sub := am.Subscribe(EventFilter{Kinds: []EventKind{EventTask}, Buffer: 4})
	r := startApp(t, am)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	var got []Event
	for ev := range sub.C() {
		got = append(got, ev)
	}
	const published = 64 * 6
	if len(got) != 4 {
		t.Fatalf("a stalled Buffer-4 subscription delivered %d events, want 4", len(got))
	}
	if uint64(len(got))+sub.Dropped() != published {
		t.Fatalf("delivered %d + dropped %d != published %d", len(got), sub.Dropped(), published)
	}
	if last := got[len(got)-1]; last.To != string(TaskDone) {
		t.Fatalf("newest survivor %+v is not the run's last transition, a task's DONE", last)
	}
}

func TestEventFilterScopesStream(t *testing.T) {
	am, _ := testApp(t, Config{})
	pipes := buildApp(2, 1, 2, time.Second)
	am.AddPipelines(pipes...)
	target := pipes[0].UID

	sub := am.Subscribe(EventFilter{Pipeline: target})
	kindSub := am.Subscribe(EventFilter{Kinds: []EventKind{EventPipeline}})
	r := startApp(t, am)

	var scoped, kinds []Event
	scopedDone := make(chan struct{})
	kindsDone := make(chan struct{})
	go func() {
		defer close(scopedDone)
		for ev := range sub.C() {
			scoped = append(scoped, ev)
		}
	}()
	go func() {
		defer close(kindsDone)
		for ev := range kindSub.C() {
			kinds = append(kinds, ev)
		}
	}()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	<-scopedDone
	<-kindsDone

	if len(scoped) == 0 {
		t.Fatal("pipeline-scoped stream empty")
	}
	for _, ev := range scoped {
		if ev.Pipeline != target {
			t.Fatalf("scoped stream leaked event %+v", ev)
		}
	}
	if len(kinds) != 4 { // 2 pipelines x (SCHEDULING, DONE)
		t.Fatalf("kind-filtered stream: %d events, want 4", len(kinds))
	}
	for _, ev := range kinds {
		if ev.Kind != EventPipeline {
			t.Fatalf("kind filter leaked %+v", ev)
		}
	}
}

func TestPauseResumeAtStageBoundary(t *testing.T) {
	am, _ := testApp(t, Config{})
	pipe := NewPipeline("pausable")
	s1 := NewStage("s1")
	s2 := NewStage("s2")
	for _, s := range []*Stage{s1, s2} {
		task := NewTask("t")
		task.Executable = "sleep"
		task.Duration = time.Second
		s.AddTask(task)
	}
	pipe.AddStages(s1, s2)

	handleCh := make(chan *Run, 1)
	paused := make(chan error, 1)
	s1.PostExec = func() error {
		r := <-handleCh
		handleCh <- r
		paused <- r.Pause(pipe.UID)
		return nil
	}
	am.AddPipelines(pipe)
	r := startApp(t, am)
	handleCh <- r

	if err := <-paused; err != nil {
		t.Fatalf("pause from PostExec: %v", err)
	}
	// The pause happened at the s1/s2 boundary: s1 is done, the pipeline is
	// suspended, and s2 must not be scheduled while it stays suspended.
	time.Sleep(50 * time.Millisecond)
	if st := pipe.State(); st != PipelineSuspended {
		t.Fatalf("pipeline state = %s, want %s", st, PipelineSuspended)
	}
	if st := s1.State(); st != StageDone {
		t.Fatalf("s1 state = %s", st)
	}
	if st := s2.State(); st != StageInitial {
		t.Fatalf("s2 started while pipeline paused: %s", st)
	}
	if err := r.Pause(pipe.UID); err == nil {
		t.Fatal("pausing a suspended pipeline succeeded")
	}
	if err := r.Resume(pipe.UID); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if pipe.State() != PipelineDone || s2.State() != StageDone {
		t.Fatalf("after resume: pipeline %s, s2 %s", pipe.State(), s2.State())
	}
}

func TestPauseDuringFinalStageDefersCompletion(t *testing.T) {
	am, _ := testApp(t, Config{})
	pipe := NewPipeline("p")
	s1 := NewStage("s1")
	task := NewTask("t")
	task.Executable = "sleep"
	task.Duration = time.Second
	s1.AddTask(task)
	pipe.AddStage(s1)

	handleCh := make(chan *Run, 1)
	paused := make(chan error, 1)
	s1.PostExec = func() error {
		r := <-handleCh
		handleCh <- r
		paused <- r.Pause(pipe.UID)
		return nil
	}
	am.AddPipelines(pipe)
	r := startApp(t, am)
	handleCh <- r
	if err := <-paused; err != nil {
		t.Fatalf("pause: %v", err)
	}
	// All work is done but the pipeline is paused: the run must not finish.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-r.Done():
		t.Fatal("run finished while its only pipeline was paused")
	default:
	}
	if err := r.Resume(pipe.UID); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if pipe.State() != PipelineDone {
		t.Fatalf("pipeline state = %s", pipe.State())
	}
}

func TestCancelPipelineLeavesSiblingsRunning(t *testing.T) {
	am, _ := testApp(t, Config{})
	doomed := buildApp(1, 1, 4, 10*time.Hour)[0] // would run ~36s of wall time
	doomed.Name = "doomed"
	healthy := buildApp(1, 1, 4, 30*time.Second)[0]
	am.AddPipelines(doomed, healthy)
	r := startApp(t, am)

	// Give the doomed pipeline a moment to get its tasks in flight, then
	// cancel just that pipeline.
	time.Sleep(20 * time.Millisecond)
	if err := r.CancelPipeline(doomed.UID); err != nil {
		t.Fatalf("CancelPipeline: %v", err)
	}
	if err := r.Wait(); err != nil {
		t.Fatalf("run failed after partial cancel: %v", err)
	}
	if st := doomed.State(); st != PipelineCanceled {
		t.Fatalf("doomed pipeline state = %s", st)
	}
	for _, s := range doomed.Stages() {
		if st := s.State(); st != StageCanceled {
			t.Fatalf("doomed stage state = %s", st)
		}
		for _, task := range s.Tasks() {
			if st := task.State(); st != TaskCanceled {
				t.Fatalf("doomed task state = %s", st)
			}
		}
	}
	if st := healthy.State(); st != PipelineDone {
		t.Fatalf("sibling pipeline state = %s", st)
	}
	// Idempotent: canceling again is a no-op, not an error.
	if err := r.CancelPipeline(doomed.UID); err != nil {
		t.Fatalf("re-cancel: %v", err)
	}
	if got := am.ActiveTasks(); got != 0 {
		t.Fatalf("active tasks after the run = %d, want 0", got)
	}
}

// TestSynchronizerSkipSemantics drives apply directly to pin the no-op-ack
// rules that make Pause and CancelPipeline race-safe against concurrent
// completion and resubmission requests.
func TestSynchronizerSkipSemantics(t *testing.T) {
	am, _ := testApp(t, Config{})
	pipes := buildApp(1, 1, 1, time.Second)
	am.AddPipelines(pipes...)
	if err := am.registerEntities(); err != nil {
		t.Fatal(err)
	}
	s := &synchronizer{am: am}
	pipe := pipes[0]
	task := pipe.Stages()[0].Tasks()[0]
	req := func(r SyncRequest) error { return s.apply(&r) }

	// Deferred completion: DONE against SUSPENDED is absorbed, not rejected
	// (the Pause-vs-final-stage race must not fail the run).
	pipe.forceState(PipelineSuspended)
	if err := req(pipelineRequest(pipe, PipelineDone)); err != nil {
		t.Fatalf("DONE on suspended pipeline rejected: %v", err)
	}
	if pipe.State() != PipelineSuspended {
		t.Fatalf("deferred completion mutated state to %s", pipe.State())
	}

	// Cancellation overrides a pending resubmission: FAILED -> CANCELED
	// commits, and the retry's SCHEDULING request is then absorbed.
	task.forceState(TaskFailed)
	one := []*Task{task}
	if err := req(SyncRequest{Tasks: one, Target: string(TaskCanceled)}); err != nil {
		t.Fatalf("cancel of FAILED task rejected: %v", err)
	}
	if task.State() != TaskCanceled {
		t.Fatalf("task state = %s", task.State())
	}
	for _, target := range []TaskState{TaskScheduling, TaskCanceled, TaskDone} {
		if err := req(SyncRequest{Tasks: one, Target: string(target)}); err != nil {
			t.Fatalf("sticky cancel rejected %s: %v", target, err)
		}
		if task.State() != TaskCanceled {
			t.Fatalf("sticky cancel mutated state to %s", task.State())
		}
	}

	// Idempotent cancel of DONE absorbs; other requests against DONE are
	// still real errors.
	task.forceState(TaskDone)
	if err := req(SyncRequest{Tasks: one, Target: string(TaskCanceled)}); err != nil {
		t.Fatalf("cancel of DONE task rejected: %v", err)
	}
	if task.State() != TaskDone {
		t.Fatalf("idempotent cancel mutated state to %s", task.State())
	}
	if err := req(SyncRequest{Tasks: one, Target: string(TaskScheduling)}); err == nil {
		t.Fatal("SCHEDULING on DONE task accepted")
	}
}

// TestCancelPipelineWithRetryingTasks cancels a pipeline whose tasks are
// permanently failing with a deep retry budget, so cancellation races the
// FAILED->SCHEDULING resubmission path continuously. The run must finish
// cleanly with the pipeline CANCELED and no task left revivable.
func TestCancelPipelineWithRetryingTasks(t *testing.T) {
	am, rts := testApp(t, Config{TaskRetries: 1_000_000})
	rts.exitFor = func(TaskDescription) int { return 1 } // always fail
	doomed := buildApp(1, 1, 8, time.Second)[0]
	healthy := buildApp(1, 1, 2, 20*time.Second)[0]
	healthyTasks := map[string]bool{}
	for _, task := range healthy.Stages()[0].Tasks() {
		healthyTasks[task.UID] = true
	}
	rts.exitFor = func(d TaskDescription) int {
		if healthyTasks[d.UID] {
			return 0
		}
		return 1
	}
	am.AddPipelines(doomed, healthy)
	r := startApp(t, am)
	time.Sleep(30 * time.Millisecond) // let the retry churn get going
	if err := r.CancelPipeline(doomed.UID); err != nil {
		t.Fatalf("CancelPipeline: %v", err)
	}
	if err := r.Wait(); err != nil {
		t.Fatalf("run errored: %v", err)
	}
	if doomed.State() != PipelineCanceled {
		t.Fatalf("doomed pipeline state = %s", doomed.State())
	}
	for _, task := range doomed.Stages()[0].Tasks() {
		if st := task.State(); st != TaskCanceled {
			t.Fatalf("doomed task state = %s (must not be revivable)", st)
		}
	}
	if healthy.State() != PipelineDone {
		t.Fatalf("sibling state = %s", healthy.State())
	}
	if got := am.ActiveTasks(); got != 0 {
		t.Fatalf("active tasks after the run = %d, want 0", got)
	}
	checkCounters(t, am, "after the run")
	checkStagesAgree(t, am, "after the run")
}

func TestStartTwiceReturnsErrAlreadyRan(t *testing.T) {
	am, _ := testApp(t, Config{})
	am.AddPipelines(buildApp(1, 1, 1, time.Second)...)
	r := startApp(t, am)
	if _, err := am.Start(context.Background()); !errors.Is(err, ErrAlreadyRan) {
		t.Fatalf("second Start: %v, want ErrAlreadyRan", err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := am.Run(context.Background()); !errors.Is(err, ErrAlreadyRan) {
		t.Fatalf("Run after Start: %v, want ErrAlreadyRan", err)
	}
	// Wait is idempotent.
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRunHandleCancelWithReason(t *testing.T) {
	am, _ := testApp(t, Config{Clock: vclock.NewScaled(100 * time.Microsecond)})
	pipes := buildApp(1, 1, 2, 10*time.Hour)
	am.AddPipelines(pipes...)
	r := startApp(t, am)
	time.Sleep(20 * time.Millisecond)
	r.Cancel("operator says stop")
	err := r.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via CancelError", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Reason != "operator says stop" {
		t.Fatalf("err = %v, want CancelError with reason", err)
	}
	if pipes[0].State() != PipelineCanceled {
		t.Fatalf("pipeline state = %s", pipes[0].State())
	}
	if got := am.ActiveTasks(); got != 0 {
		t.Fatalf("active tasks after Cancel = %d, want 0", got)
	}
}

func TestSnapshotProgressCounts(t *testing.T) {
	am, rts := testApp(t, Config{})
	pipes := buildApp(2, 1, 4, 10*time.Second)
	am.AddPipelines(pipes...)

	pre := am.Snapshot()
	if pre.TasksTotal != 8 || pre.Tasks[string(TaskInitial)] != 8 {
		t.Fatalf("pre-start snapshot: %+v", pre)
	}
	r := startApp(t, am)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap.TasksDone != 8 || snap.Tasks[string(TaskDone)] != 8 {
		t.Fatalf("post-run tasks: %+v", snap)
	}
	if snap.Pipelines[string(PipelineDone)] != 2 || snap.Stages[string(StageDone)] != 2 {
		t.Fatalf("post-run entity counts: %+v", snap)
	}
	if snap.TaskAttempts != 8 {
		t.Fatalf("attempts = %d, want 8", snap.TaskAttempts)
	}
	if got := am.ActiveTasks(); got != 0 {
		t.Fatalf("active tasks after run = %d", got)
	}
	if got := rts.Stats().TasksCompleted; got != 8 {
		t.Fatalf("rts completed %d", got)
	}
}

func TestLateSubscribeAfterRunFinished(t *testing.T) {
	am, _ := testApp(t, Config{})
	am.AddPipelines(buildApp(1, 1, 1, time.Second)...)
	r := startApp(t, am)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	ch, cancel := r.Events(EventFilter{})
	defer cancel()
	if _, ok := <-ch; ok {
		t.Fatal("late subscription delivered events")
	}
}
