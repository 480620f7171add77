package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/hostmodel"
	"repro/internal/vclock"
)

// testApp builds an AppManager wired to a fakeRTS, returning both.
func testApp(t *testing.T, cfg Config) (*AppManager, *fakeRTS) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewScaled(time.Microsecond)
	}
	am, err := NewAppManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := newFakeRTS(cfg.Clock)
	am.SetRTSFactory(func(res ResourceDesc) (RTS, error) { return rts, nil })
	am.SetResource(ResourceDesc{Resource: "supermic", Cores: 64, Walltime: time.Hour})
	return am, rts
}

func buildApp(nPipelines, nStages, nTasks int, dur time.Duration) []*Pipeline {
	var pipes []*Pipeline
	for p := 0; p < nPipelines; p++ {
		pipe := NewPipeline("p")
		for s := 0; s < nStages; s++ {
			stage := NewStage("s")
			for k := 0; k < nTasks; k++ {
				task := NewTask("t")
				task.Executable = "sleep"
				task.Duration = dur
				stage.AddTask(task)
			}
			pipe.AddStage(stage)
		}
		pipes = append(pipes, pipe)
	}
	return pipes
}

func runApp(t *testing.T, am *AppManager) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return am.Run(ctx)
}

func TestRunSinglePipeline(t *testing.T) {
	am, rts := testApp(t, Config{})
	pipes := buildApp(1, 1, 4, 100*time.Second)
	am.AddPipelines(pipes...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	for _, p := range pipes {
		if p.State() != PipelineDone {
			t.Fatalf("pipeline state = %s", p.State())
		}
		for _, s := range p.Stages() {
			if s.State() != StageDone {
				t.Fatalf("stage state = %s", s.State())
			}
			for _, task := range s.Tasks() {
				if task.State() != TaskDone {
					t.Fatalf("task state = %s", task.State())
				}
			}
		}
	}
	if got := rts.Stats().TasksCompleted; got != 4 {
		t.Fatalf("rts completed %d tasks", got)
	}
	if am.ActiveTasks() != 0 {
		t.Fatalf("active tasks after run = %d", am.ActiveTasks())
	}
}

func TestRunValidatesConfiguration(t *testing.T) {
	if _, err := NewAppManager(Config{}); err == nil {
		t.Fatal("config without clock accepted")
	}

	am, _ := testApp(t, Config{})
	// No pipelines.
	if err := runApp(t, am); err == nil {
		t.Fatal("empty application accepted")
	}
}

func TestRunRequiresResource(t *testing.T) {
	am, _ := testApp(t, Config{})
	am.SetResource(ResourceDesc{})
	am.AddPipelines(buildApp(1, 1, 1, time.Second)...)
	if err := runApp(t, am); err == nil {
		t.Fatal("missing resource accepted")
	}
}

func TestStagesExecuteSequentially(t *testing.T) {
	am, rts := testApp(t, Config{})
	pipe := NewPipeline("p")
	var stageOf = map[string]int{}
	for s := 0; s < 3; s++ {
		stage := NewStage("s")
		for k := 0; k < 4; k++ {
			task := NewTask("t")
			task.Executable = "sleep"
			task.Duration = 10 * time.Second
			stage.AddTask(task)
			stageOf[task.UID] = s
		}
		pipe.AddStage(stage)
	}
	am.AddPipelines(pipe)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	// Completion order must be grouped by stage: all of stage i before any
	// of stage i+1.
	maxSeen := -1
	for _, uid := range rts.log() {
		s := stageOf[uid]
		if s < maxSeen {
			t.Fatalf("stage %d task completed after stage %d started finishing", s, maxSeen)
		}
		if s > maxSeen {
			// All tasks of earlier stages must be done.
			maxSeen = s
		}
	}
	if maxSeen != 2 {
		t.Fatalf("last stage seen = %d", maxSeen)
	}
}

func TestPipelinesExecuteConcurrently(t *testing.T) {
	// A coarse scale (50 µs per virtual second) keeps real Go processing
	// time negligible in virtual terms, so the elapsed measurement reflects
	// modelled durations only.
	clock := vclock.NewScaled(50 * time.Microsecond)
	am, _ := testApp(t, Config{Clock: clock})
	pipes := buildApp(8, 1, 2, 200*time.Second)
	am.AddPipelines(pipes...)
	start := clock.Now()
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now().Sub(start)
	// 8 pipelines x 200 s tasks run concurrently: the whole run must take
	// far less than the serialized 1,600 s.
	if elapsed > 800*time.Second {
		t.Fatalf("pipelines appear serialized: %v", elapsed)
	}
	for _, p := range pipes {
		if p.State() != PipelineDone {
			t.Fatalf("pipeline %s state = %s", p.UID, p.State())
		}
	}
}

func TestFailedTaskIsResubmitted(t *testing.T) {
	am, rts := testApp(t, Config{TaskRetries: 2})
	var failures int64
	rts.exitFor = func(desc TaskDescription) int {
		if desc.Attempt == 1 { // fail the first attempt of every task
			atomic.AddInt64(&failures, 1)
			return 1
		}
		return 0
	}
	pipes := buildApp(1, 1, 3, time.Second)
	am.AddPipelines(pipes...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	for _, task := range pipes[0].Stages()[0].Tasks() {
		if task.State() != TaskDone {
			t.Fatalf("task state = %s", task.State())
		}
		if task.Attempts() != 2 {
			t.Fatalf("attempts = %d, want 2", task.Attempts())
		}
	}
	if got := atomic.LoadInt64(&failures); got != 3 {
		t.Fatalf("failures = %d, want 3", got)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	am, rts := testApp(t, Config{TaskRetries: 1})
	rts.exitFor = func(TaskDescription) int { return 42 } // always fail
	pipes := buildApp(1, 1, 1, time.Second)
	am.AddPipelines(pipes...)
	err := runApp(t, am)
	if err == nil {
		t.Fatal("run with permanently failing task returned nil")
	}
	task := pipes[0].Stages()[0].Tasks()[0]
	if task.State() != TaskFailed {
		t.Fatalf("task state = %s", task.State())
	}
	if task.Attempts() != 2 { // initial + 1 retry
		t.Fatalf("attempts = %d", task.Attempts())
	}
	if task.ExitCode() != 42 {
		t.Fatalf("exit code = %d", task.ExitCode())
	}
	if pipes[0].State() != PipelineFailed {
		t.Fatalf("pipeline state = %s", pipes[0].State())
	}
}

func TestPerTaskRetryOverride(t *testing.T) {
	am, rts := testApp(t, Config{TaskRetries: 5})
	rts.exitFor = func(TaskDescription) int { return 1 }
	pipe := NewPipeline("p")
	stage := NewStage("s")
	task := NewTask("t")
	task.Executable = "sleep"
	task.Duration = time.Second
	task.MaxRetries = 0 // no retries despite the app default
	stage.AddTask(task)
	pipe.AddStage(stage)
	am.AddPipelines(pipe)
	runApp(t, am) //nolint:errcheck
	if task.Attempts() != 1 {
		t.Fatalf("attempts = %d, want 1 (no retries)", task.Attempts())
	}
}

func TestContextCancellation(t *testing.T) {
	am, _ := testApp(t, Config{Clock: vclock.NewScaled(100 * time.Microsecond)})
	pipes := buildApp(1, 1, 2, 10*time.Hour) // effectively forever
	am.AddPipelines(pipes...)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	err := am.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, task := range pipes[0].Stages()[0].Tasks() {
		if task.State() != TaskCanceled {
			t.Fatalf("task state = %s", task.State())
		}
	}
	if pipes[0].State() != PipelineCanceled {
		t.Fatalf("pipeline state = %s", pipes[0].State())
	}
	// The in-flight tasks were force-canceled, not committed: they must
	// leave the managed count all the same.
	if got, snap := am.ActiveTasks(), am.Snapshot().ActiveTasks; got != 0 || snap != 0 {
		t.Fatalf("active tasks after a canceled run = %d (snapshot %d), want 0", got, snap)
	}
}

func TestAdaptivePostExecAddsStages(t *testing.T) {
	am, _ := testApp(t, Config{})
	pipe := NewPipeline("adaptive")
	var rounds int32
	var addRound func() error
	addRound = func() error {
		n := atomic.AddInt32(&rounds, 1)
		if n >= 4 {
			return nil // converged
		}
		next := NewStage("round")
		task := NewTask("t")
		task.Executable = "sleep"
		task.Duration = time.Second
		next.AddTask(task)
		next.PostExec = addRound
		return pipe.AddStage(next)
	}
	first := NewStage("round")
	seed := NewTask("t")
	seed.Executable = "sleep"
	seed.Duration = time.Second
	first.AddTask(seed)
	first.PostExec = addRound
	pipe.AddStage(first)
	am.AddPipelines(pipe)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&rounds); got != 4 {
		t.Fatalf("rounds = %d, want 4", got)
	}
	if pipe.StageCount() != 4 {
		t.Fatalf("stages = %d, want 4", pipe.StageCount())
	}
	if pipe.State() != PipelineDone {
		t.Fatalf("pipeline state = %s", pipe.State())
	}
}

func TestRTSFailover(t *testing.T) {
	clock := vclock.NewScaled(time.Microsecond)
	am, err := NewAppManager(Config{Clock: clock, RTSRestarts: 3, HeartbeatInterval: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var instances int64
	var first *fakeRTS
	am.SetRTSFactory(func(res ResourceDesc) (RTS, error) {
		n := atomic.AddInt64(&instances, 1)
		rts := newFakeRTS(clock)
		if n == 1 {
			rts.dieAfter = 3 // first instance dies after accepting 3 tasks
			first = rts
		}
		return rts, nil
	})
	am.SetResource(ResourceDesc{Resource: "titan", Cores: 64, Walltime: time.Hour})
	pipes := buildApp(1, 1, 8, 30*time.Second)
	am.AddPipelines(pipes...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&instances); got < 2 {
		t.Fatalf("RTS instances = %d, want >= 2 (restart)", got)
	}
	if am.RTSRestarts() < 1 {
		t.Fatalf("restarts = %d", am.RTSRestarts())
	}
	for _, task := range pipes[0].Stages()[0].Tasks() {
		if task.State() != TaskDone {
			t.Fatalf("task %s state = %s after failover", task.UID, task.State())
		}
	}
	checkReinjected(t, first, pipes[0].Stages()[0].Tasks())
}

// checkReinjected holds failover to re-injecting exactly the tasks the dead
// RTS accepted and never reported, no more and no fewer: each of those failed
// once (the restart's FAILED), and no other task failed at all.
func checkReinjected(t *testing.T, dead *fakeRTS, tasks []*Task) {
	t.Helper()
	lost := dead.lost()
	for _, task := range tasks {
		fails := 0
		for _, st := range task.StateHistory() {
			if st == TaskFailed {
				fails++
			}
		}
		want := 0
		if lost[task.UID] {
			want = 1
		}
		if fails != want {
			t.Errorf("task %s failed %d times, want %d (lost with the dead RTS: %v)", task.UID, fails, want, lost[task.UID])
		}
	}
}

// TestFailoverReinjectsOnlyUnreportedTasks kills the first RTS once it has
// reported the first stage's instant tasks and while its long ones still run:
// failover must take back the long ones, and neither a task the RTS already
// reported nor one of the second stage, which no RTS has seen yet.
func TestFailoverReinjectsOnlyUnreportedTasks(t *testing.T) {
	clock := vclock.NewScaled(time.Microsecond)
	am, err := NewAppManager(Config{Clock: clock, RTSRestarts: 1, HeartbeatInterval: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	first := newFakeRTS(clock)
	var instances int64
	am.SetRTSFactory(func(ResourceDesc) (RTS, error) {
		if atomic.AddInt64(&instances, 1) == 1 {
			return first, nil
		}
		return newFakeRTS(clock), nil
	})
	am.SetResource(ResourceDesc{Resource: "titan", Cores: 64, Walltime: time.Hour})
	const instant = 8
	pipe := buildApp(1, 2, 2*instant, 24*time.Hour)[0] // 24 h is ~86 ms of wall time
	tasks, next := pipe.Stages()[0].Tasks(), pipe.Stages()[1].Tasks()
	for _, task := range slices.Concat(tasks[:instant], next) {
		task.Duration = 0
	}
	am.AddPipelines(pipe) //nolint:errcheck
	go func() {
		for {
			first.mu.Lock()
			n := len(first.reported)
			first.mu.Unlock()
			if n >= instant {
				first.Kill()
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	if am.RTSRestarts() != 1 {
		t.Fatalf("restarts = %d, want 1", am.RTSRestarts())
	}
	for _, task := range slices.Concat(tasks, next) {
		if task.State() != TaskDone {
			t.Fatalf("task %s state = %s after failover", task.UID, task.State())
		}
	}
	if lost := len(first.lost()); lost == 0 || lost == len(tasks) {
		t.Fatalf("the first RTS lost %d of %d tasks; the test wants it to lose some", lost, len(tasks))
	}
	checkReinjected(t, first, slices.Concat(tasks, next))
}

// doubleReportRTS is a fakeRTS whose completion channel carries a result for
// a UID no task has, and then every result of the fake twice.
type doubleReportRTS struct {
	*fakeRTS
	out chan TaskResult
}

func newDoubleReportRTS(f *fakeRTS, capacity int) *doubleReportRTS {
	r := &doubleReportRTS{fakeRTS: f, out: make(chan TaskResult, capacity)}
	go func() {
		defer close(r.out)
		r.out <- TaskResult{UID: "task.nobody"}
		for res := range f.completions {
			r.out <- res
			r.out <- res
		}
	}()
	return r
}

func (r *doubleReportRTS) Completions() <-chan TaskResult { return r.out }

// TestRedundantResultsAreDropped: a result that clears no in-flight mark — the
// second report of an attempt, or one naming no task — must be dropped by the
// callback, not committed against a finished task.
func TestRedundantResultsAreDropped(t *testing.T) {
	am, fake := testApp(t, Config{})
	pipes := buildApp(2, 3, 8, time.Second)
	rts := newDoubleReportRTS(fake, 2*2*3*8+1)
	am.SetRTSFactory(func(ResourceDesc) (RTS, error) { return rts, nil })
	am.AddPipelines(pipes...) //nolint:errcheck
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	p := am.Snapshot()
	if p.TasksDone != p.TasksTotal || p.TaskAttempts != p.TasksTotal {
		t.Fatalf("%d of %d tasks DONE in %d attempts; want every task DONE in one", p.TasksDone, p.TasksTotal, p.TaskAttempts)
	}
	for _, pipe := range pipes {
		if pipe.State() != PipelineDone {
			t.Fatalf("pipeline %s state = %s", pipe.UID, pipe.State())
		}
	}
}

// While failover has purged the dead RTS and its replacement is still
// starting, the Emgr has nothing to submit to: it must wait for the adoption,
// not take the pending batch, requeue it and take it again for as long as the
// start lasts.
func TestEmgrParksWhileFailoverStartsTheReplacement(t *testing.T) {
	clock := vclock.NewScaled(time.Microsecond)
	am, err := NewAppManager(Config{Clock: clock, RTSRestarts: 1, HeartbeatInterval: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	first := newFakeRTS(clock)
	blocked, release := make(chan struct{}), make(chan struct{})
	var instances int64
	am.SetRTSFactory(func(ResourceDesc) (RTS, error) {
		if atomic.AddInt64(&instances, 1) == 1 {
			return first, nil
		}
		return &slowStartRTS{fakeRTS: newFakeRTS(clock), blocked: blocked, release: release}, nil
	})
	am.SetResource(ResourceDesc{Resource: "titan", Cores: 64, Walltime: time.Hour})

	// One pipeline that suspends itself after its first stage, so that the
	// test decides when the second stage's tasks reach the pending queue.
	pipe := buildApp(1, 2, 4, time.Second)[0]
	pipe.Stages()[0].PostExec = func() error { return pipe.Suspend() }
	am.AddPipelines(pipe)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := am.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				run.Cancel("test failed")
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	pending := func() broker.QueueStats {
		st, err := am.Broker().Stats(am.qname(qPending))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	waitUntil("the pipeline to suspend", func() bool { return pipe.State() == PipelineSuspended })
	first.Kill()
	<-blocked // failover has purged the first RTS and is inside the second's Start
	before := pending()
	if err := run.Resume(pipe.UID); err != nil {
		t.Fatal(err)
	}
	waitUntil("stage 2 to reach the pending queue", func() bool { return pending().Published > before.Published })
	time.Sleep(50 * time.Millisecond) // a spinning Emgr requeues thousands of times in this
	if got := pending().Nacked - before.Nacked; got > 8 {
		t.Fatalf("the Emgr requeued %d pending messages while the replacement RTS was starting", got)
	}
	close(release)
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, s := range pipe.Stages() {
		for _, task := range s.Tasks() {
			if task.State() != TaskDone {
				t.Fatalf("task %s state = %s", task.UID, task.State())
			}
		}
	}
	if am.RTSRestarts() != 1 {
		t.Fatalf("restarts = %d, want 1", am.RTSRestarts())
	}
}

// slowStartRTS is a fakeRTS whose Start announces itself and then waits to be
// released: a replacement RTS that takes its time (a remote fleet dialing).
type slowStartRTS struct {
	*fakeRTS
	blocked, release chan struct{}
}

func (s *slowStartRTS) Start(ctx context.Context) error {
	close(s.blocked)
	select {
	case <-s.release:
		return s.fakeRTS.Start(ctx)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// failStartRTS is a fakeRTS whose Start fails, as a pilot the batch system
// refuses does; it counts the Stops it gets.
type failStartRTS struct {
	*fakeRTS
	stops atomic.Int64
}

func (f *failStartRTS) Start(context.Context) error { return errors.New("pilot refused") }

func (f *failStartRTS) Stop() error {
	f.stops.Add(1)
	return f.fakeRTS.Stop()
}

// An RTS whose Start failed is its caller's to release (core.RTS.Start): the
// manager stops it exactly once, on the first start and on a failover
// restart alike, and the run fails.
func TestFailedStartIsStoppedOnce(t *testing.T) {
	for _, restart := range []bool{false, true} {
		clock := vclock.NewScaled(time.Microsecond)
		am, err := NewAppManager(Config{Clock: clock, RTSRestarts: 1, HeartbeatInterval: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		failing := &failStartRTS{fakeRTS: newFakeRTS(clock)}
		var instances int64
		am.SetRTSFactory(func(ResourceDesc) (RTS, error) {
			if atomic.AddInt64(&instances, 1) == 1 && restart {
				first := newFakeRTS(clock)
				first.dieAfter = 2
				return first, nil
			}
			return failing, nil
		})
		am.SetResource(ResourceDesc{Resource: "titan", Cores: 64, Walltime: time.Hour})
		am.AddPipelines(buildApp(1, 1, 4, 30*time.Second)...)
		if err := runApp(t, am); err == nil {
			t.Fatalf("restart=%v: the run succeeded with an RTS that cannot start", restart)
		}
		if got := failing.stops.Load(); got != 1 {
			t.Errorf("restart=%v: the RTS whose Start failed was stopped %d times, want 1", restart, got)
		}
	}
}

func TestJournalRecoverySkipsCompletedTasks(t *testing.T) {
	jdir := t.TempDir()
	clock := vclock.NewScaled(time.Microsecond)

	// First run: task "flaky" fails permanently; three others succeed.
	mkApp := func() (*Pipeline, *Task) {
		pipe := NewPipeline("p")
		stage := NewStage("s")
		var flaky *Task
		for i := 0; i < 4; i++ {
			task := NewTask("t")
			task.UID = []string{"task.recov.a", "task.recov.b", "task.recov.c", "task.recov.flaky"}[i]
			task.Executable = "sleep"
			task.Duration = time.Second
			stage.AddTask(task)
			if i == 3 {
				flaky = task
			}
		}
		pipe.AddStage(stage)
		return pipe, flaky
	}

	am1, err := NewAppManager(Config{Clock: clock, JournalDir: jdir, TaskRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	rts1 := newFakeRTS(clock)
	rts1.exitFor = func(d TaskDescription) int {
		if d.UID == "task.recov.flaky" {
			return 1
		}
		return 0
	}
	am1.SetRTSFactory(func(ResourceDesc) (RTS, error) { return rts1, nil })
	am1.SetResource(ResourceDesc{Resource: "comet", Cores: 8, Walltime: time.Hour})
	pipe1, _ := mkApp()
	am1.AddPipelines(pipe1)
	if err := runApp(t, am1); err == nil {
		t.Fatal("first run should fail (flaky task)")
	}

	// Second run, same journal: only the flaky task may execute again.
	am2, err := NewAppManager(Config{Clock: clock, JournalDir: jdir, TaskRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	rts2 := newFakeRTS(clock) // succeeds now
	am2.SetRTSFactory(func(ResourceDesc) (RTS, error) { return rts2, nil })
	am2.SetResource(ResourceDesc{Resource: "comet", Cores: 8, Walltime: time.Hour})
	pipe2, flaky2 := mkApp()
	am2.AddPipelines(pipe2)
	if err := runApp(t, am2); err != nil {
		t.Fatal(err)
	}
	if got := rts2.Stats().TasksCompleted; got != 1 {
		t.Fatalf("second run executed %d tasks, want 1 (recovery must skip DONE)", got)
	}
	if flaky2.State() != TaskDone {
		t.Fatalf("flaky task state = %s", flaky2.State())
	}
	if pipe2.State() != PipelineDone {
		t.Fatalf("pipeline state = %s", pipe2.State())
	}
}

func TestOverheadAccountingWithRealHostModel(t *testing.T) {
	host, _ := hostmodel.Lookup("xsede-vm")
	// Shrink costs so the test stays fast but nonzero.
	host.MsgCost = 100 * time.Microsecond
	host.SpawnCost = 10 * time.Microsecond
	host.TeardownCost = 100 * time.Microsecond
	am, _ := testApp(t, Config{Host: host, Clock: vclock.NewScaled(time.Microsecond)})
	am.AddPipelines(buildApp(1, 1, 16, time.Second)...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	rep := am.Profiler().Report()
	if rep.EnTKSetup <= 0 {
		t.Fatalf("setup overhead = %v", rep.EnTKSetup)
	}
	if rep.EnTKManagement <= 0 {
		t.Fatalf("management overhead = %v", rep.EnTKManagement)
	}
	if rep.EnTKTeardown <= 0 {
		t.Fatalf("teardown overhead = %v", rep.EnTKTeardown)
	}
}

func TestSuspendResume(t *testing.T) {
	am, _ := testApp(t, Config{})
	pipe := NewPipeline("p")
	s1 := NewStage("s1")
	t1 := NewTask("t1")
	t1.Executable = "sleep"
	t1.Duration = time.Second
	s1.AddTask(t1)
	s2 := NewStage("s2")
	t2 := NewTask("t2")
	t2.Executable = "sleep"
	t2.Duration = time.Second
	s2.AddTask(t2)
	pipe.AddStages(s1, s2)

	resumed := make(chan struct{})
	s1.PostExec = func() error {
		if err := pipe.Suspend(); err != nil {
			return err
		}
		go func() {
			time.Sleep(50 * time.Millisecond)
			pipe.Resume() //nolint:errcheck
			am.Nudge()
			close(resumed)
		}()
		return nil
	}
	am.AddPipelines(pipe)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	<-resumed
	if pipe.State() != PipelineDone {
		t.Fatalf("pipeline state = %s", pipe.State())
	}
	if t2.State() != TaskDone {
		t.Fatalf("post-resume task state = %s", t2.State())
	}
}

func TestRunTwiceRejected(t *testing.T) {
	am, _ := testApp(t, Config{})
	am.AddPipelines(buildApp(1, 1, 1, time.Second)...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	if err := runApp(t, am); err == nil {
		t.Fatal("second Run accepted")
	}
}
