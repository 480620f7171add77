package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/msgcodec"
	"repro/internal/vclock"
)

// walkProgress is Snapshot's task accounting as it was before the per-stage
// tallies: every pipeline, stage and task visited and each task's state read
// under its own lock. It is the reference the tallies must agree with.
func walkProgress(am *AppManager) Progress {
	p := Progress{Pipelines: map[string]int{}, Stages: map[string]int{}, Tasks: map[string]int{}}
	for _, pipe := range am.Pipelines() {
		pp := PipelineProgress{
			UID: pipe.UID, Name: pipe.Name,
			State: string(pipe.State()), CurrentStage: pipe.CurrentStageIndex(),
		}
		p.Pipelines[pp.State]++
		for _, s := range pipe.Stages() {
			pp.StageCount++
			p.Stages[string(s.State())]++
			for _, t := range s.Tasks() {
				st := t.State()
				p.Tasks[string(st)]++
				p.TasksTotal++
				pp.TasksTotal++
				p.TaskAttempts += t.Attempts()
				switch st {
				case TaskDone:
					p.TasksDone++
					pp.TasksDone++
				case TaskFailed:
					p.TasksFailed++
				case TaskCanceled:
					p.TasksCanceled++
				case TaskInitial:
				default:
					p.ActiveTasks++
				}
			}
		}
		p.PerPipeline = append(p.PerPipeline, pp)
	}
	return p
}

// walkTasksTerminal is Stage.tasksTerminal as it was: a rescan of the tasks.
func walkTasksTerminal(s *Stage) (allTerminal, anyFailed, anyCanceled bool) {
	allTerminal = true
	for _, t := range s.Tasks() {
		switch t.State() {
		case TaskDone:
		case TaskFailed:
			anyFailed = true
		case TaskCanceled:
			anyCanceled = true
		default:
			allTerminal = false
		}
	}
	return allTerminal, anyFailed, anyCanceled
}

// checkCounters compares everything Snapshot, ActiveTasks and tasksTerminal
// take from tallies against the walks, field by field. The application must
// be quiescent: no transition may commit between the two readings.
func checkCounters(t *testing.T, am *AppManager, when string) {
	t.Helper()
	got, want := am.Snapshot(), walkProgress(am)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Pipelines", got.Pipelines, want.Pipelines},
		{"Stages", got.Stages, want.Stages},
		{"Tasks", got.Tasks, want.Tasks},
		{"TasksTotal", got.TasksTotal, want.TasksTotal},
		{"TasksDone", got.TasksDone, want.TasksDone},
		{"TasksFailed", got.TasksFailed, want.TasksFailed},
		{"TasksCanceled", got.TasksCanceled, want.TasksCanceled},
		{"TaskAttempts", got.TaskAttempts, want.TaskAttempts},
		{"ActiveTasks", got.ActiveTasks, want.ActiveTasks},
		{"PerPipeline", got.PerPipeline, want.PerPipeline},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: Snapshot().%s = %v, the walk says %v", when, f.name, f.got, f.want)
		}
	}
	// The run's own tally counts registered stages only, but an unregistered
	// stage has no task under management either.
	if am.ActiveTasks() != want.ActiveTasks {
		t.Errorf("%s: ActiveTasks() = %d, the walk says %d", when, am.ActiveTasks(), want.ActiveTasks)
	}
	for _, pipe := range am.Pipelines() {
		for _, s := range pipe.Stages() {
			a, f, c := s.tasksTerminal()
			wa, wf, wc := walkTasksTerminal(s)
			if a != wa || f != wf || c != wc {
				t.Errorf("%s: stage %s tasksTerminal = %v/%v/%v, the walk says %v/%v/%v", when, s.UID, a, f, c, wa, wf, wc)
			}
		}
	}
}

// randomApp builds pipelines x stages x tasks of random small sizes with
// structural UIDs (tag distinguishes applications sharing a process), so a
// second incarnation of the same seed names every entity identically.
func randomApp(rng *rand.Rand, tag string, pipelines int) []*Pipeline {
	var pipes []*Pipeline
	for pi := 0; pi < pipelines; pi++ {
		p := NewPipeline("p")
		p.UID = fmt.Sprintf("%s.pipeline.%d", tag, pi)
		for si, stages := 0, 1+rng.Intn(3); si < stages; si++ {
			s := NewStage("s")
			s.UID = fmt.Sprintf("%s.stage.%d.%d", tag, pi, si)
			for ti, tasks := 0, 1+rng.Intn(6); ti < tasks; ti++ {
				task := NewTask("t")
				task.UID = fmt.Sprintf("%s.task.%d.%d.%d", tag, pi, si, ti)
				task.Executable = "sleep"
				task.Duration = time.Duration(1+rng.Intn(20)) * time.Second
				s.AddTask(task) //nolint:errcheck
			}
			p.AddStage(s) //nolint:errcheck
		}
		pipes = append(pipes, p)
	}
	return pipes
}

// TestProgressCountersMatchWalk runs twenty random applications through the
// shapes that write task state — retries, exhausted retries, CancelPipeline,
// PostExec-added stages, pipelines added at runtime, a cut run and its
// Resume — and holds the tallies to the walks at every quiescent point: before
// Start, inside PostExec hooks of applications that run one pipeline at a
// time (Dequeue is in the hook and nothing else is runnable), and after Wait.
func TestProgressCountersMatchWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			tag := fmt.Sprintf("cmw%d", seed)
			switch seed % 4 {
			case 0:
				countersSequential(t, rng, tag)
			case 1:
				countersConcurrent(t, rng, tag)
			case 2:
				countersFanOut(t, rng, tag)
			case 3:
				countersResume(t, rng, tag)
			}
		})
	}
}

// failFirst makes the fake RTS fail the first attempt of a random third of
// the tasks it sees, and every attempt of the tasks in always.
func failFirst(rng *rand.Rand, rts *fakeRTS, always map[string]bool) {
	var mu sync.Mutex // the RTS decides on its tasks' goroutines
	rng = rand.New(rand.NewSource(rng.Int63()))
	flaky := map[string]bool{}
	rts.exitFor = func(d TaskDescription) int {
		mu.Lock()
		defer mu.Unlock()
		if always[d.UID] {
			return 1
		}
		if _, seen := flaky[d.UID]; !seen {
			flaky[d.UID] = rng.Intn(3) == 0
		}
		if flaky[d.UID] && d.Attempt == 1 {
			return 1
		}
		return 0
	}
}

// countersSequential: a chain of pipelines (each After the one before), flaky
// tasks retried, and every stage's PostExec a quiescent point; the first
// pipeline's first stage also appends a stage.
func countersSequential(t *testing.T, rng *rand.Rand, tag string) {
	am, rts := testApp(t, Config{TaskRetries: 2})
	failFirst(rng, rts, nil)
	pipes := randomApp(rng, tag, 1+rng.Intn(3))
	for i, p := range pipes {
		if i > 0 {
			p.After(pipes[i-1]) //nolint:errcheck
		}
		for _, s := range p.Stages() {
			s.PostExec = func() error { checkCounters(t, am, "in PostExec"); return nil }
		}
	}
	late := randomApp(rng, tag+".late", 1)[0].Stages()[0]
	pipes[0].Stages()[0].PostExec = func() error {
		checkCounters(t, am, "before growing the pipeline")
		return pipes[0].AddStage(late)
	}
	am.AddPipelines(pipes...) //nolint:errcheck
	checkCounters(t, am, "before Start")
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	checkCounters(t, am, "after the run")
	if got := am.Snapshot(); got.TasksDone != got.TasksTotal || got.TaskAttempts < got.TasksTotal {
		t.Fatalf("run left %+v", got)
	}
}

// countersConcurrent: pipelines side by side, one of which exhausts a task's
// retries (and fails the run) and one of which is canceled mid-flight.
func countersConcurrent(t *testing.T, rng *rand.Rand, tag string) {
	am, rts := testApp(t, Config{TaskRetries: 1})
	pipes := randomApp(rng, tag, 3+rng.Intn(2))
	doomed := pipes[0].Stages()[0].Tasks()[0]
	failFirst(rng, rts, map[string]bool{doomed.UID: true})
	canceled := make(chan struct{}) // the doomed task fails, and the run with it, only after the cancel
	flaky := rts.exitFor
	rts.exitFor = func(d TaskDescription) int {
		if d.UID == doomed.UID {
			<-canceled
		}
		return flaky(d)
	}
	for _, task := range pipes[1].Stages()[0].Tasks() {
		task.Duration = 10 * time.Hour // still in flight when the cancel lands
	}
	am.AddPipelines(pipes...) //nolint:errcheck
	checkCounters(t, am, "before Start")
	r := startApp(t, am)
	if err := r.CancelPipeline(pipes[1].UID); err != nil {
		t.Fatal(err)
	}
	close(canceled)
	if err := r.Wait(); err == nil {
		t.Fatal("a pipeline with an always-failing task did not fail the run")
	}
	checkCounters(t, am, "after the run")
	got := am.Snapshot()
	if got.TasksFailed == 0 || got.TasksCanceled == 0 || got.ActiveTasks != 0 {
		t.Fatalf("run left %+v", got)
	}
}

// countersFanOut: one pipeline whose first stage's PostExec adds pipelines to
// the running application.
func countersFanOut(t *testing.T, rng *rand.Rand, tag string) {
	am, rts := testApp(t, Config{TaskRetries: 2})
	failFirst(rng, rts, nil)
	root := randomApp(rng, tag, 1)[0]
	fan := randomApp(rng, tag+".fan", 1+rng.Intn(3))
	root.Stages()[0].PostExec = func() error {
		checkCounters(t, am, "before the fan-out")
		return am.AddPipelines(fan...)
	}
	am.AddPipelines(root) //nolint:errcheck
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	checkCounters(t, am, "after the run")
	if got := am.Snapshot(); len(got.PerPipeline) < 2 || got.TasksDone != got.TasksTotal {
		t.Fatalf("run left %+v", got)
	}
}

// countersResume: a durable run cut at its first stage boundary (tasks in
// flight elsewhere are force-canceled), then a second incarnation resumed
// from the directory, whose DONE tasks are restored by force as well.
func countersResume(t *testing.T, rng *rand.Rand, tag string) {
	dir := t.TempDir()
	shape := rng.Int63()
	build := func() []*Pipeline {
		pipes := randomApp(rand.New(rand.NewSource(shape)), tag, 2)
		tail := NewStage("tail") // at least one stage left to run after the cut
		tail.UID = tag + ".stage.tail"
		task := NewTask("t")
		task.UID, task.Executable, task.Duration = tag+".task.tail", "sleep", time.Second
		tail.AddTask(task)      //nolint:errcheck
		pipes[0].AddStage(tail) //nolint:errcheck
		return pipes
	}

	am1, _ := testApp(t, Config{JournalDir: dir})
	pipes := build()
	for _, task := range pipes[1].Stages()[0].Tasks() {
		task.Duration = 10 * time.Hour // in flight at the cut
	}
	handle := make(chan *Run, 1)
	pipes[0].Stages()[0].PostExec = func() error {
		(<-handle).Cancel("cut")
		return nil
	}
	am1.AddPipelines(pipes...) //nolint:errcheck
	r := startApp(t, am1)
	handle <- r
	if err := r.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cut run ended with %v", err)
	}
	checkCounters(t, am1, "after the cut")
	if cut := am1.Snapshot(); cut.ActiveTasks != 0 || cut.TasksCanceled == 0 {
		t.Fatalf("cut run left %+v", cut)
	}

	am2, rts2 := testApp(t, Config{})
	am2.AddPipelines(build()...) //nolint:errcheck
	r2, err := am2.Resume(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	restored := am2.RecoveryInfo().TasksRecovered
	if restored == 0 {
		t.Fatal("Resume restored no DONE task")
	}
	if err := r2.Wait(); err != nil {
		t.Fatal(err)
	}
	checkCounters(t, am2, "after the resumed run")
	got := am2.Snapshot()
	if got.TasksDone != got.TasksTotal || got.TaskAttempts != got.TasksTotal-restored {
		t.Fatalf("resumed run left %+v with %d tasks restored", got, restored)
	}
	if ran := rts2.Stats().TasksCompleted; ran != got.TasksTotal-restored {
		t.Fatalf("resumed run executed %d tasks, want %d", ran, got.TasksTotal-restored)
	}
}

// TestRetriedTaskNeverFailsItsStage is a stress test of one interleaving: the
// last task of a stage fails its first attempt while Enqueue is still
// finishing scheduleStage, whose closing completion check then finds every
// task terminal — one of them FAILED, but about to be resubmitted. With a
// retry budget that covers every failure here, no run may fail. (Without
// settleFailures' hold of completionMu about one run in 150 does.)
func TestRetriedTaskNeverFailsItsStage(t *testing.T) {
	stress(t, 60, func(t *testing.T, i int, rng *rand.Rand) {
		am, rts := testApp(t, Config{TaskRetries: 2})
		failFirst(rng, rts, nil)
		am.AddPipelines(buildApp(2, 2, 1+rng.Intn(4), time.Duration(1+rng.Intn(20))*time.Second)...) //nolint:errcheck
		if err := runApp(t, am); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	})
}

// stress runs body for runs seeded iterations on each of eight parallel
// workers: many small runs side by side, each over in a few hundred
// microseconds, is what brings out an interleaving that needs two goroutines
// to meet inside one.
func stress(t *testing.T, runs int, body func(t *testing.T, i int, rng *rand.Rand)) {
	for w := 0; w < 8; w++ {
		w := w
		t.Run(fmt.Sprintf("worker-%d", w), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < runs; i++ {
				body(t, i, rand.New(rand.NewSource(int64(w*1000+i))))
			}
		})
	}
}

// TestLazyClientsRaceRunEnd: the heartbeat's and the run handle's sync
// clients are made on first use, so their first use can meet tear-down. The
// first RTS dies after accepting a few tasks, which makes failover create the
// heartbeat's client mid-run — in a quarter of the runs while the run is being
// canceled — and a second goroutine pauses, resumes and cancels pipelines
// until after the run is over. Whatever the interleaving: no operation hangs
// or attaches to a deleted queue (each ends in success, the Synchronizer's
// rejection or broker.ErrClosed), a pause that was granted can be taken back,
// and an uncanceled run loses no task to the failover.
func TestLazyClientsRaceRunEnd(t *testing.T) {
	stress(t, 25, func(t *testing.T, i int, rng *rand.Rand) {
		clock := vclock.NewScaled(time.Microsecond)
		width := 1 + rng.Intn(4)
		am, err := NewAppManager(Config{
			Clock:             clock,
			RTSRestarts:       1,
			HeartbeatInterval: time.Duration(1+rng.Intn(20)) * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		var instances atomic.Int64
		dieAfter := int64(1 + rng.Intn(width))
		am.SetRTSFactory(func(ResourceDesc) (RTS, error) {
			rts := newFakeRTS(clock)
			if instances.Add(1) == 1 {
				rts.dieAfter = dieAfter
			}
			return rts, nil
		})
		am.SetResource(ResourceDesc{Resource: "supermic", Cores: 64, Walltime: time.Hour})
		pipes := buildApp(2, 2, width, time.Duration(1+rng.Intn(20))*time.Second)
		am.AddPipelines(pipes...) //nolint:errcheck
		kept, doomed := pipes[0], pipes[1]
		r := startApp(t, am)

		expected := func(err error) bool {
			return err == nil || errors.Is(err, broker.ErrClosed) || errors.Is(err, broker.ErrNoQueue) ||
				strings.Contains(err.Error(), "transition rejected")
		}
		cancelRun := i%4 == 3
		cancelAt := time.Duration(rng.Intn(300)) * time.Microsecond
		doomAt := rng.Intn(6)
		ops := make(chan struct{})
		go func() {
			defer close(ops)
			for n, last := 0, false; !last; n++ {
				select {
				case <-r.Done():
					last = true // one more round, on a run that is over
				default:
				}
				if n == doomAt {
					if err := r.CancelPipeline(doomed.UID); !expected(err) {
						t.Errorf("run %d: CancelPipeline: %v", i, err)
					}
				}
				err := r.Pause(kept.UID)
				if !expected(err) {
					t.Errorf("run %d: Pause: %v", i, err)
				}
				if err == nil {
					if err := r.Resume(kept.UID); !expected(err) || kept.State() == PipelineSuspended {
						t.Errorf("run %d: Resume after a granted Pause: %v (pipeline %s)", i, err, kept.State())
					}
				}
			}
			if err := r.Pause(kept.UID); err == nil {
				t.Errorf("run %d: Pause of a pipeline of a finished run succeeded", i)
			}
		}()
		if cancelRun {
			time.Sleep(cancelAt)
			r.Cancel("racing the failover")
		}
		err = r.Wait()
		<-ops
		switch {
		case cancelRun && err != nil && !errors.Is(err, context.Canceled):
			t.Fatalf("run %d: canceled run ended with %v", i, err)
		case !cancelRun && err != nil:
			t.Fatalf("run %d (restarts %d): %v", i, am.RTSRestarts(), err)
		case !cancelRun && kept.State() != PipelineDone:
			t.Fatalf("run %d: pipeline ended %s", i, kept.State())
		}
		if got := am.ActiveTasks(); got != 0 {
			t.Fatalf("run %d: %d tasks still active after the run", i, got)
		}
	})
}

// TestStateHistoryPastInlineCapacity: a task's history reads the same
// whether its transitions fit the inline array or spill into the overflow,
// which a retried task's do.
func TestStateHistoryPastInlineCapacity(t *testing.T) {
	attempt := []TaskState{TaskScheduling, TaskScheduled, TaskSubmitting, TaskSubmitted, TaskExecuted}
	task := NewTask("retried")
	var want []TaskState
	step := func(to TaskState) {
		t.Helper()
		if err := task.advance(to); err != nil {
			t.Fatal(err)
		}
		want = append(want, to)
		if got := task.StateHistory(); !reflect.DeepEqual(got, want) {
			t.Fatalf("history after %d transitions = %v, want %v", len(want), got, want)
		}
	}
	for retry := 0; retry < 3; retry++ {
		for _, to := range attempt {
			step(to)
		}
		step(TaskFailed)
	}
	for _, to := range append(attempt, TaskDone) {
		step(to)
	}
	if len(want) <= len(task.histBuf) {
		t.Fatalf("%d transitions never left the inline array of %d", len(want), len(task.histBuf))
	}
	if task.Attempts() != 4 {
		t.Fatalf("attempts = %d, want 4", task.Attempts())
	}
	task.forceState(TaskCanceled)
	if got := task.StateHistory(); got[len(got)-1] != TaskCanceled || len(got) != len(want)+1 {
		t.Fatalf("forced state missing from history %v", got)
	}
}

// TestCommitPathAllocs pins the commit path's allocation contract on a
// non-durable manager nobody subscribed to: decoding a bulk task request
// against the registry into the Synchronizer's own frame and applying it
// allocates nothing, for 512 UIDs as for 64, once that frame has held a
// request as wide — and a fresh task's six transitions allocate nothing at
// all.
func TestCommitPathAllocs(t *testing.T) {
	const runs = 20
	perRequest := func(width int) float64 {
		am, _ := testApp(t, Config{})
		s := newSynchronizer(am)
		// Every measured call commits DESCRIBED -> SCHEDULING on a stage of
		// its own, so each is a first transition of fresh tasks.
		var bodies [][]byte
		pipe := NewPipeline("p")
		for call := 0; call <= runs; call++ {
			stage := NewStage("s")
			uids := make([]string, width)
			for k := range uids {
				task := NewTask("t")
				task.Executable = "sleep"
				stage.AddTask(task) //nolint:errcheck
				uids[k] = task.UID
			}
			pipe.AddStage(stage) //nolint:errcheck
			body, err := msgcodec.FormatBinary.EncodeSyncFrame(msgcodec.SyncFrame{Reply: "q", Seq: 1,
				Reqs: []stateRequest{{Entity: "task", UIDs: uids, Target: string(TaskScheduling)}}})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
		am.AddPipelines(pipe) //nolint:errcheck
		if err := am.registerEntities(); err != nil {
			t.Fatal(err)
		}
		call := 0
		allocs := testing.AllocsPerRun(runs, func() {
			am.mu.Lock()
			err := msgcodec.DecodeSyncFrameInto(&s.frame, bodies[call], am.resolve)
			am.mu.Unlock()
			call++
			if err != nil || !s.apply(&s.frame.Reqs[0]).OK {
				t.Fatal("request rejected")
			}
		})
		if got := am.Snapshot().Tasks[string(TaskScheduling)]; got != (runs+1)*width {
			t.Fatalf("%d tasks committed, want %d", got, (runs+1)*width)
		}
		return allocs
	}
	narrow, wide := perRequest(64), perRequest(512)
	if narrow != 0 || wide != 0 {
		t.Fatalf("decode+apply allocates %.1f objects for a 64-UID request and %.1f for a 512-UID one, want none once the Synchronizer's frame has grown", narrow, wide)
	}

	path := []TaskState{TaskScheduling, TaskScheduled, TaskSubmitting, TaskSubmitted, TaskExecuted, TaskDone}
	stage := NewStage("s")
	tasks := make([]*Task, runs+1)
	for i := range tasks {
		tasks[i] = NewTask("t")
		stage.AddTask(tasks[i]) //nolint:errcheck
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		for _, to := range path {
			if err := tasks[next].advance(to); err != nil {
				t.Fatal(err)
			}
		}
		next++
	}); allocs != 0 {
		t.Fatalf("six transitions of a fresh task allocate %.1f objects, want 0", allocs)
	}
}

// TestSnapshotPollerAndLateSubscriber runs a 1x1x4096 application with a
// Snapshot poller alongside and an event subscriber attached mid-run (run it
// under -race). The poller must never see a torn count: the stage's task
// counts always sum to 4096 and DONE never goes backwards. The subscriber
// must be handed every transition committed after Subscribe returned: what it
// sees of each task is a gapless tail of that task's history, and every task
// that was not yet DONE when it attached is seen reaching DONE.
func TestSnapshotPollerAndLateSubscriber(t *testing.T) {
	const tasks = 4096
	am, _ := testApp(t, Config{Clock: vclock.NewScaled(time.Microsecond)})
	pipes := buildApp(1, 1, tasks, 30*time.Second)
	am.AddPipelines(pipes...) //nolint:errcheck
	r := startApp(t, am)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		lastDone := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := am.Snapshot()
			sum := 0
			for state, k := range p.Tasks {
				if k < 0 {
					t.Errorf("negative count %d for %s", k, state)
				}
				sum += k
			}
			if p.TasksTotal != tasks || sum != tasks || p.PerPipeline[0].TasksTotal != tasks {
				t.Errorf("torn snapshot: total %d, states sum to %d, pipeline %d", p.TasksTotal, sum, p.PerPipeline[0].TasksTotal)
			}
			if p.TasksDone < lastDone || p.ActiveTasks < 0 || p.ActiveTasks > tasks {
				t.Errorf("DONE went %d -> %d, active %d", lastDone, p.TasksDone, p.ActiveTasks)
			}
			lastDone = p.TasksDone
		}
	}()

	// Attach once transitions are flowing.
	for am.Snapshot().Tasks[string(TaskInitial)] == tasks {
		time.Sleep(100 * time.Microsecond)
	}
	sub := am.Subscribe(EventFilter{Kinds: []EventKind{EventTask}, Buffer: 8 * tasks})
	doneAtAttach := am.Snapshot().TasksDone
	seen := map[string][]TaskState{}
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for ev := range sub.C() {
			seen[ev.UID] = append(seen[ev.UID], TaskState(ev.To))
		}
	}()

	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	pollers.Wait()
	consumer.Wait() // the stream closes once the run is over and drained
	if sub.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d events; the ring was sized not to", sub.Dropped())
	}
	sawDone := 0
	for _, task := range pipes[0].Stages()[0].Tasks() {
		hist, got := task.StateHistory(), seen[task.UID]
		if len(got) > len(hist) || !slices.Equal(got, hist[len(hist)-len(got):]) {
			t.Fatalf("task %s: subscriber saw %v, not a tail of the history %v", task.UID, got, hist)
		}
		if len(got) > 0 {
			sawDone++
		}
	}
	if sawDone < tasks-doneAtAttach {
		t.Fatalf("subscriber saw %d tasks reach DONE; %d were still to get there when it attached", sawDone, tasks-doneAtAttach)
	}
	checkCounters(t, am, "after the run")
}

// TestSubscribeDuringBulkRequest attaches a subscriber while one bulk request
// is being applied — the moment the Synchronizer's decision whether anything
// reads its list of commits flips. Every task the request commits after
// Subscribe has returned must be published, so whether to list a commit is
// asked per transition, not once per request.
func TestSubscribeDuringBulkRequest(t *testing.T) {
	const tasks = 1 << 16
	am, _ := testApp(t, Config{})
	pipes := buildApp(1, 1, tasks, time.Second)
	am.AddPipelines(pipes...) //nolint:errcheck
	if err := am.registerEntities(); err != nil {
		t.Fatal(err)
	}
	stage := pipes[0].Stages()[0]
	req := stateRequest{Entity: "task", Target: string(TaskScheduling)}
	for _, task := range stage.Tasks() {
		req.UIDs = append(req.UIDs, task.UID)
	}
	acked := make(chan stateAck, 1)
	go func() { acked <- newSynchronizer(am).apply(&req) }()

	committed := func() int {
		n, _ := stage.tally.read()
		return n[codeScheduling]
	}
	for committed() == 0 {
		runtime.Gosched()
	}
	sub := am.Subscribe(EventFilter{Buffer: tasks})
	before := committed() // no fewer than had committed when Subscribe returned
	if ack := <-acked; !ack.OK {
		t.Fatalf("request rejected: %s", ack.Err)
	}
	am.events.closeAll() // the stream ends once drained
	published := 0
	for range sub.C() {
		published++
	}
	if published < tasks-before || sub.Dropped() != 0 {
		t.Fatalf("%d of %d transitions committed before the subscriber attached, yet only %d were published (%d dropped)",
			before, tasks, published, sub.Dropped())
	}
	t.Logf("subscriber attached after %d of %d commits and was handed %d", before, tasks, published)
}

// recordingRTS is a fakeRTS that remembers which tasks it was handed.
type recordingRTS struct {
	*fakeRTS
	mu   sync.Mutex
	uids []string
}

func (r *recordingRTS) Submit(tasks []TaskDescription) error {
	r.mu.Lock()
	for _, d := range tasks {
		r.uids = append(r.uids, d.UID)
	}
	r.mu.Unlock()
	return r.fakeRTS.Submit(tasks)
}

// TestSubmitBatchMixedMessages hands the Emgr one batch of pending messages
// of every kind: a well-formed one, one that names an unknown task next to a
// good one and a task canceled since it was published, and one that is not a
// frame at all. The resolvable live tasks are submitted exactly once, the
// canceled one is not, the good message is acked, and the other two are
// dropped — not requeued, which would submit the good task again.
func TestSubmitBatchMixedMessages(t *testing.T) {
	// A first stage that outlasts the test (100 h here is 36 s of wall time),
	// so nothing but the messages below touches the second stage's tasks.
	am, fake := testApp(t, Config{Clock: vclock.NewScaled(100 * time.Microsecond)})
	rts := &recordingRTS{fakeRTS: fake}
	am.SetRTSFactory(func(ResourceDesc) (RTS, error) { return rts, nil })
	pipe := buildApp(1, 2, 3, 100*time.Hour)[0]
	am.AddPipelines(pipe) //nolint:errcheck
	r := startApp(t, am)
	held := pipe.Stages()[1].Tasks()
	good1, good2, canceled := held[0], held[1], held[2]

	am.ctlMu.Lock()
	for _, req := range []stateRequest{
		taskBatchRequest([]*Task{good1, good2}, TaskScheduling),
		taskBatchRequest([]*Task{good1, good2}, TaskScheduled),
		taskBatchRequest([]*Task{canceled}, TaskCanceled),
	} {
		if err := am.ctlRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	am.ctlMu.Unlock()
	pending := am.qname(qPending)
	settled := func(published uint64) (st broker.QueueStats) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			st, _ = am.brk.Stats(pending)
			if st.Published == published && st.Acked+st.Nacked == published && st.Depth == 0 && st.Unacked == 0 {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("pending queue never settled: %+v", st)
			}
		}
	}
	before := settled(1) // the first stage's own message
	bodies := [][]byte{
		msgcodec.FormatBinary.EncodeTaskUIDs([]string{good1.UID, "task.nobody", canceled.UID}),
		[]byte("not a frame"),
		msgcodec.FormatBinary.EncodeTaskUID(good2.UID),
	}
	if err := am.brk.PublishBatch(pending, bodies); err != nil {
		t.Fatal(err)
	}
	after := settled(4)
	if acked, nacked := after.Acked-before.Acked, after.Nacked-before.Nacked; acked != 1 || nacked != 2 {
		t.Fatalf("messages acked %d, dropped %d; want 1 and 2", acked, nacked)
	}
	if n := after.Delivered - before.Delivered; n != 3 {
		t.Fatalf("%d deliveries of 3 messages: one was requeued", n)
	}
	rts.mu.Lock()
	submitted := append([]string(nil), rts.uids...)
	rts.mu.Unlock()
	count := map[string]int{}
	for _, uid := range submitted {
		count[uid]++
	}
	if count[good1.UID] != 1 || count[good2.UID] != 1 || count[canceled.UID] != 0 || count["task.nobody"] != 0 {
		t.Fatalf("RTS was handed %v", submitted)
	}
	if good1.State() != TaskSubmitted || good2.State() != TaskSubmitted || canceled.State() != TaskCanceled {
		t.Fatalf("states %s/%s/%s, want SUBMITTED/SUBMITTED/CANCELED", good1.State(), good2.State(), canceled.State())
	}
	r.Cancel("test over")
	r.Wait() //nolint:errcheck // the cancellation
}
