package rts

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/hpc"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// harness bundles a clock, SAGA session and registry around a PilotRTS.
type harness struct {
	clock   vclock.Clock
	session *saga.Session
	rts     *PilotRTS
}

func newHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	clock := vclock.NewScaled(time.Microsecond)
	session := saga.NewSession()
	t.Cleanup(session.Close)
	for _, ci := range hpc.Names() {
		a, err := saga.NewCatalogAdapter(ci, clock)
		if err != nil {
			t.Fatal(err)
		}
		session.Register(a)
	}
	cfg := Config{
		// The walltime is generous in virtual terms so the pilot cannot hit
		// its walltime limit mid-test, even under the race detector.
		Resource: core.ResourceDesc{Resource: "supermic", Cores: 40, Walltime: 72 * time.Hour},
		Clock:    clock,
		Session:  session,
		Registry: workload.NewRegistry(),
		Model:    FastModel(),
		Seed:     7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Stop() })
	return &harness{clock: clock, session: session, rts: r}
}

func start(t *testing.T, h *harness) {
	t.Helper()
	if err := h.rts.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func collect(t *testing.T, h *harness, n int) []core.TaskResult {
	t.Helper()
	var out []core.TaskResult
	timeout := time.After(30 * time.Second)
	for len(out) < n {
		select {
		case res, ok := <-h.rts.Completions():
			if !ok {
				t.Fatalf("completions closed after %d of %d results", len(out), n)
			}
			out = append(out, res)
		case <-timeout:
			t.Fatalf("timed out with %d of %d results", len(out), n)
		}
	}
	return out
}

func sleepTask(uid string, d time.Duration, cores int) core.TaskDescription {
	return core.TaskDescription{UID: uid, Executable: "sleep", Duration: d, Cores: cores}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	clock := vclock.NewScaled(time.Microsecond)
	if _, err := New(Config{Clock: clock}); err == nil {
		t.Fatal("config without session accepted")
	}
	if _, err := New(Config{Clock: clock, Session: saga.NewSession()}); err == nil {
		t.Fatal("config without registry accepted")
	}
}

func TestExecutesTaskThroughPilot(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	if err := h.rts.Submit([]core.TaskDescription{sleepTask("t1", 10*time.Second, 1)}); err != nil {
		t.Fatal(err)
	}
	res := collect(t, h, 1)[0]
	if res.UID != "t1" || res.ExitCode != 0 {
		t.Fatalf("result: %+v", res)
	}
	if !res.Finished.After(res.Started) && res.Finished != res.Started {
		t.Fatalf("timestamps: %v .. %v", res.Started, res.Finished)
	}
	s := h.rts.Stats()
	if s.TasksSubmitted != 1 || s.TasksCompleted != 1 || s.Utilization.TasksInFlight != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestCoreLimitBoundsConcurrency(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Resource.Cores = 20 // one supermic node
	})
	start(t, h)
	// 4 tasks, each 10 cores for 100 s: only 2 fit at a time.
	var descs []core.TaskDescription
	for i := 0; i < 4; i++ {
		descs = append(descs, sleepTask(core.NewUID("t"), 100*time.Second, 10))
	}
	if err := h.rts.Submit(descs); err != nil {
		t.Fatal(err)
	}
	results := collect(t, h, 4)
	// Check max overlap from the timestamps.
	type event struct {
		at    time.Time
		delta int
	}
	var evs []event
	for _, r := range results {
		evs = append(evs, event{r.Started, 1}, event{r.Finished, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at.Equal(evs[j].at) {
			return evs[i].delta < evs[j].delta
		}
		return evs[i].at.Before(evs[j].at)
	})
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	if max > 2 {
		t.Fatalf("observed %d concurrent tasks on 20 cores with 10-core tasks", max)
	}
	if max < 2 {
		t.Fatalf("tasks serialized (max overlap %d)", max)
	}
}

func TestOversizedTaskFails(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	h.rts.Submit([]core.TaskDescription{sleepTask("huge", time.Second, 10000)})
	res := collect(t, h, 1)[0]
	if res.ExitCode == 0 {
		t.Fatal("oversized task succeeded")
	}
}

func TestUnknownExecutable(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	h.rts.Submit([]core.TaskDescription{{UID: "x", Executable: "quantum-solver", Cores: 1}})
	res := collect(t, h, 1)[0]
	if res.ExitCode != 127 {
		t.Fatalf("exit = %d, want 127", res.ExitCode)
	}
}

func TestStagingChargesFilesystem(t *testing.T) {
	clock := vclock.NewScaled(time.Microsecond)
	fs, err := fsim.New(fsim.OLCFLustre(), clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, func(c *Config) {
		c.Clock = clock
		c.FS = fs
	})
	start(t, h)
	desc := sleepTask("staged", time.Second, 1)
	desc.Input = []core.StagingDirective{
		{Source: "l1", Action: core.StagingLink},
		{Source: "l2", Action: core.StagingLink},
		{Source: "l3", Action: core.StagingLink},
		{Source: "input.tpr", Action: core.StagingCopy, Bytes: 550 * 1024},
	}
	h.rts.Submit([]core.TaskDescription{desc})
	res := collect(t, h, 1)[0]
	if res.StagingTime <= 0 {
		t.Fatal("no staging time recorded")
	}
	if fs.Stats().BytesStaged != 550*1024 {
		t.Fatalf("bytes staged = %d", fs.Stats().BytesStaged)
	}
}

func TestLaunchDelayInflatesShortTasks(t *testing.T) {
	// The paper: tasks set to run 1 s run ≈5 s due to RP overhead. A coarse
	// clock scale keeps real scheduling noise negligible in virtual terms.
	coarse := vclock.NewScaled(time.Millisecond)
	h := newHarness(t, func(c *Config) {
		m := FastModel()
		m.LaunchDelay = 3500 * time.Millisecond
		c.Model = m
		c.Clock = coarse
	})
	start(t, h)
	h.rts.Submit([]core.TaskDescription{sleepTask("short", time.Second, 1)})
	collect(t, h, 1)
	window := h.rts.prof.Window("task_execution")
	// The window is wall-derived at 1 ms/vs; under a loaded machine each
	// wall sleep overshoots, so allow generous headroom above the modelled
	// 4.5 s. The claim under test is qualitative: a 1 s task runs ≈5 s, a
	// multiple of its nominal duration — not ≈1 s.
	if window < 4*time.Second || window > 20*time.Second {
		t.Fatalf("execution window = %v, want ≈4.5-5 s (launch-delay inflation)", window)
	}
}

func TestInjectedTaskFailures(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Faults = FaultPlan{TaskFailureProb: 1.0}
	})
	start(t, h)
	h.rts.Submit([]core.TaskDescription{sleepTask("doomed", time.Second, 1)})
	res := collect(t, h, 1)[0]
	if res.ExitCode == 0 {
		t.Fatal("fault plan did not fail the task")
	}
}

func TestCrashAfterCompletions(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Faults = FaultPlan{CrashAfterCompletions: 2}
	})
	start(t, h)
	var descs []core.TaskDescription
	for i := 0; i < 2; i++ {
		descs = append(descs, sleepTask(core.NewUID("t"), time.Second, 1))
	}
	h.rts.Submit(descs)
	collect(t, h, 2)
	deadline := time.After(5 * time.Second)
	for h.rts.Alive() {
		select {
		case <-deadline:
			t.Fatal("RTS still alive after crash threshold")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestContentionFailuresAboveThreshold(t *testing.T) {
	clock := vclock.NewScaled(time.Microsecond)
	spec := fsim.OLCFLustre()
	spec.ContentionThreshold = 2
	fs, _ := fsim.New(spec, clock, 3)
	h := newHarness(t, func(c *Config) {
		c.Clock = clock
		c.FS = fs
		c.Resource.Cores = 40
	})
	start(t, h)
	var descs []core.TaskDescription
	for i := 0; i < 16; i++ {
		d := sleepTask(core.NewUID("io"), 200*time.Second, 1)
		d.IOLoad = 1
		descs = append(descs, d)
	}
	h.rts.Submit(descs)
	results := collect(t, h, 16)
	failures := 0
	for _, r := range results {
		if r.ExitCode != 0 {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no contention failures despite 16 writers over threshold 2")
	}
}

func TestSubmitAfterStopFails(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	h.rts.Stop()
	if err := h.rts.Submit([]core.TaskDescription{sleepTask("late", time.Second, 1)}); err == nil {
		t.Fatal("submit after stop accepted")
	}
	// Completions must be closed.
	select {
	case _, ok := <-h.rts.Completions():
		if ok {
			t.Fatal("unexpected completion after stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("completions not closed")
	}
}

func TestTeardownCharged(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		m := FastModel()
		m.TeardownTime = 40 * time.Second
		c.Model = m
	})
	start(t, h)
	h.rts.Stop()
	if got := h.rts.prof.Sum("rts_teardown"); got < 35*time.Second {
		t.Fatalf("teardown charged %v, want ≈40 s", got)
	}
}

func TestLocalFuncRuns(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	ran := make(chan struct{})
	h.rts.Submit([]core.TaskDescription{{
		UID: "local", Cores: 1,
		LocalFunc: func() error { close(ran); return nil },
	}})
	res := collect(t, h, 1)[0]
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d (%s)", res.ExitCode, res.Error)
	}
	select {
	case <-ran:
	default:
		t.Fatal("LocalFunc never executed")
	}
}

// TestEndToEndWithEnTK drives a full EnTK application through the pilot RTS:
// the complete stack of the paper minus nothing.
func TestEndToEndWithEnTK(t *testing.T) {
	clock := vclock.NewScaled(time.Microsecond)
	session := saga.NewSession()
	defer session.Close()
	// A private cluster with an effectively unlimited walltime cap, so the
	// pilot cannot be killed mid-test by wall-clock slowness (race builds).
	cluster, err := hpc.NewCluster(hpc.Spec{
		Name: "comet", Nodes: 1944, CoresPerNode: 24,
		MaxWalltime: 1000000 * time.Hour,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	session.Register(saga.NewClusterAdapter(cluster))
	am, err := core.NewAppManager(core.Config{Clock: clock, TaskRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	am.SetResource(core.ResourceDesc{Resource: "comet", Cores: 48, Walltime: 999999 * time.Hour})
	am.SetRTSFactory(Factory(Config{
		Clock:    clock,
		Session:  session,
		Registry: workload.NewRegistry(),
		Model:    FastModel(),
	}))
	pipe := core.NewPipeline("e2e")
	stage := core.NewStage("s")
	for i := 0; i < 8; i++ {
		task := core.NewTask("t")
		task.Executable = "sleep"
		task.Duration = 20 * time.Second
		stage.AddTask(task)
	}
	pipe.AddStage(stage)
	am.AddPipelines(pipe)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if pipe.State() != core.PipelineDone {
		t.Fatalf("pipeline state = %s", pipe.State())
	}
}

func TestStorePushPull(t *testing.T) {
	s := newStore(nil, 0)
	if err := s.Push([]core.TaskDescription{{UID: "a"}, {UID: "b"}}); err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 2 {
		t.Fatalf("depth = %d", s.Depth())
	}
	x, ok := s.Pull()
	if !ok || x.UID != "a" {
		t.Fatalf("pull = %+v, %v", x, ok)
	}
	y, _ := s.Pull()
	if y.UID != "b" {
		t.Fatalf("pull order broken: %s", y.UID)
	}
	s.Close()
	if _, ok := s.Pull(); ok {
		t.Fatal("pull from closed empty store returned a task")
	}
	if err := s.Push([]core.TaskDescription{{UID: "c"}}); err == nil {
		t.Fatal("push to closed store accepted")
	}
}

func TestStorePullBlocksUntilPush(t *testing.T) {
	s := newStore(nil, 0)
	got := make(chan string, 1)
	go func() {
		d, ok := s.Pull()
		if ok {
			got <- d.UID
		}
	}()
	select {
	case <-got:
		t.Fatal("pull returned before push")
	case <-time.After(20 * time.Millisecond):
	}
	s.Push([]core.TaskDescription{{UID: "later"}})
	select {
	case uid := <-got:
		if uid != "later" {
			t.Fatalf("uid = %s", uid)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull never returned")
	}
	s.Close()
}
