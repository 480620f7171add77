package rts

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// fleet is a SAGA session with a catalog adapter for each CI, and the clock
// they share. A virtual second lasts 1 ms, so a 2 h pilot (titan's cap) lasts
// 7.2 s of wall time: at 1 µs it was 7.2 ms, which a -race run on a loaded
// machine outlived, and the expired pilot dropped the test's results.
type fleet struct {
	clock   vclock.Clock
	session *saga.Session
}

func newFleet(t *testing.T, cis ...string) fleet {
	t.Helper()
	f := fleet{clock: vclock.NewScaled(time.Millisecond), session: saga.NewSession()}
	t.Cleanup(f.session.Close)
	for _, ci := range cis {
		a, err := saga.NewCatalogAdapter(ci, f.clock)
		if err != nil {
			t.Fatal(err)
		}
		f.session.Register(a)
	}
	return f
}

// pilot is the configuration of one router member's pilot on ci.
func (f fleet) pilot(ci string, cores, gpus int) Config {
	return Config{
		Resource: core.ResourceDesc{Resource: ci, Cores: cores, GPUs: gpus, Walltime: 2 * time.Hour},
		Clock:    f.clock,
		Session:  f.session,
		Registry: workload.NewRegistry(),
		Model:    FastModel(),
	}
}

// newRouterHarness builds a router with a big "titan" member and a small
// "comet" member, the heterogeneous setup of the seismic use case.
func newRouterHarness(t *testing.T) *Composite {
	t.Helper()
	f := newFleet(t, "titan", "comet")
	router, err := NewRouter([]Config{f.pilot("titan", 1024, 0), f.pilot("comet", 48, 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Stop() })
	return router
}

// submitted is how many tasks each member of c took, in member order.
func submitted(c *Composite) []int {
	var out []int
	for _, m := range c.Members() {
		out = append(out, m.Stats().TasksSubmitted)
	}
	return out
}

// drainN reads n results off c, failing on a failed task or a timeout.
func drainN(t *testing.T, c *Composite, n int) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case res := <-c.Completions():
			if res.ExitCode != 0 {
				t.Fatalf("task %s failed: %s", res.UID, res.Error)
			}
		case <-timeout:
			t.Fatalf("timed out after %d of %d results", i, n)
		}
	}
}

func TestRouterValidation(t *testing.T) {
	if _, err := NewRouter(nil); err == nil {
		t.Fatal("empty router accepted")
	}
	f := newFleet(t, "comet")
	noClock := f.pilot("comet", 8, 0)
	noClock.Clock = nil
	if _, err := NewRouter([]Config{noClock}); err == nil {
		t.Fatal("member without a clock accepted")
	}
	if _, err := NewRouter([]Config{f.pilot("comet", 0, 0)}); err == nil {
		t.Fatal("zero-core member accepted")
	}
	if _, err := NewRouter([]Config{f.pilot("comet", 8, -1)}); err == nil {
		t.Fatal("member with negative GPUs accepted")
	}
}

func TestRouterHonoursResourceTag(t *testing.T) {
	router := newRouterHarness(t)
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	descs := []core.TaskDescription{
		{UID: "sim", Executable: "sleep", Duration: time.Second, Cores: 512,
			Tags: map[string]string{"resource": "titan"}},
		{UID: "proc", Executable: "sleep", Duration: time.Second, Cores: 4,
			Tags: map[string]string{"resource": "comet"}},
	}
	if err := router.Submit(descs); err != nil {
		t.Fatal(err)
	}
	drainN(t, router, 2)
	if got := submitted(router); got[0] != 1 || got[1] != 1 {
		t.Fatalf("routing counts: titan=%d comet=%d", got[0], got[1])
	}
}

func TestRouterRejectsUnknownResourceTag(t *testing.T) {
	router := newRouterHarness(t)
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := router.Submit([]core.TaskDescription{
		{UID: "ok", Executable: "sleep", Cores: 1},
		{UID: "x", Executable: "sleep", Cores: 1, Tags: map[string]string{"resource": "frontier"}},
	})
	if err == nil {
		t.Fatal("unknown resource tag accepted")
	}
	// Placement refuses the whole batch before any member sees a task.
	if got := submitted(router); got[0] != 0 || got[1] != 0 {
		t.Fatalf("members took %v of a refused batch", got)
	}
	if !router.Alive() {
		t.Fatal("a refused placement killed the router")
	}
}

func TestRouterSizeAwarePlacement(t *testing.T) {
	router := newRouterHarness(t)
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 512-core tasks can only fit the leadership member.
	var descs []core.TaskDescription
	for i := 0; i < 2; i++ {
		descs = append(descs, core.TaskDescription{
			UID: core.NewUID("big"), Executable: "sleep",
			Duration: time.Second, Cores: 512,
		})
	}
	if err := router.Submit(descs); err != nil {
		t.Fatal(err)
	}
	drainN(t, router, 2)
	if got := submitted(router); got[0] != 2 || got[1] != 0 {
		t.Fatalf("big tasks routed titan=%d comet=%d, want 2 and 0", got[0], got[1])
	}
}

func TestRouterRejectsOversizedTask(t *testing.T) {
	router := newRouterHarness(t)
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := router.Submit([]core.TaskDescription{{
		UID: "huge", Executable: "sleep", Cores: 100000,
	}})
	if err == nil {
		t.Fatal("task larger than every member accepted")
	}
}

func TestRouterStatsAggregate(t *testing.T) {
	router := newRouterHarness(t)
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	router.Submit([]core.TaskDescription{
		{UID: "a", Executable: "sleep", Duration: time.Second, Cores: 1},
		{UID: "b", Executable: "sleep", Duration: time.Second, Cores: 1},
	})
	drainN(t, router, 2)
	s := router.Stats()
	if s.PilotsSubmitted != 2 {
		t.Fatalf("pilots = %d, want 2 (one per member)", s.PilotsSubmitted)
	}
	if s.TasksCompleted != 2 {
		t.Fatalf("completed = %d", s.TasksCompleted)
	}
}

// TestRouterEndToEndWithEnTK runs a heterogeneous application through the
// full EnTK stack: simulation tasks pinned to titan, analysis tasks pinned
// to comet, in sequential stages of one pipeline (the §III-A interleaving).
func TestRouterEndToEndWithEnTK(t *testing.T) {
	clock := vclock.NewScaled(time.Microsecond)
	session := saga.NewSession()
	defer session.Close()
	// Private clusters with effectively unlimited walltime caps.
	for _, spec := range []hpc.Spec{
		{Name: "titan", Nodes: 1024, CoresPerNode: 16, MaxWalltime: 1e6 * time.Hour},
		{Name: "comet", Nodes: 100, CoresPerNode: 24, MaxWalltime: 1e6 * time.Hour},
	} {
		cluster, err := hpc.NewCluster(spec, clock)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		session.Register(saga.NewClusterAdapter(cluster))
	}
	member := func(ci string, cores int) Config {
		return Config{
			Resource: core.ResourceDesc{Resource: ci, Cores: cores, Walltime: 999 * time.Hour},
			Clock:    clock, Session: session,
			Registry: workload.NewRegistry(), Model: FastModel(),
		}
	}
	am, err := core.NewAppManager(core.Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	am.SetResource(core.ResourceDesc{Resource: "titan+comet", Cores: 1, Walltime: time.Hour})
	var router *Composite
	am.SetRTSFactory(func(core.ResourceDesc) (core.RTS, error) {
		var rerr error
		router, rerr = NewRouter([]Config{member("titan", 2048), member("comet", 48)})
		return router, rerr
	})

	pipe := core.NewPipeline("hetero")
	sim := core.NewStage("simulation")
	for i := 0; i < 4; i++ {
		task := core.NewTask("sim")
		task.Executable = "sleep"
		task.Duration = 30 * time.Second
		task.CPUReqs = core.CPUReqs{Processes: 256}
		task.Tags = map[string]string{"resource": "titan"}
		sim.AddTask(task)
	}
	pipe.AddStage(sim)
	analysis := core.NewStage("analysis")
	for i := 0; i < 4; i++ {
		task := core.NewTask("proc")
		task.Executable = "sleep"
		task.Duration = 10 * time.Second
		task.Tags = map[string]string{"resource": "comet"}
		analysis.AddTask(task)
	}
	pipe.AddStage(analysis)
	am.AddPipelines(pipe)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if pipe.State() != core.PipelineDone {
		t.Fatalf("pipeline state = %s", pipe.State())
	}
	if got := submitted(router); got[0] != 4 || got[1] != 4 {
		t.Fatalf("routing: titan=%d comet=%d", got[0], got[1])
	}
}

// newGPURouterHarness builds a router with a GPU-equipped "titan" member and
// a GPU-less "comet" member.
func newGPURouterHarness(t *testing.T) *Composite {
	t.Helper()
	f := newFleet(t, "titan", "comet")
	router, err := NewRouter([]Config{f.pilot("titan", 64, 4), f.pilot("comet", 64, 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Stop() })
	return router
}

func TestRouterGPUAwarePlacement(t *testing.T) {
	router := newGPURouterHarness(t)
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Untagged GPU tasks must land on the GPU member even though the CPU
	// member is equally loaded.
	var descs []core.TaskDescription
	for i := 0; i < 4; i++ {
		descs = append(descs, core.TaskDescription{
			UID: core.NewUID("task"), Executable: "sleep",
			Duration: time.Second, Cores: 1, GPUs: 1,
		})
	}
	if err := router.Submit(descs); err != nil {
		t.Fatal(err)
	}
	drainN(t, router, 4)
	if got := submitted(router); got[0] != 4 || got[1] != 0 {
		t.Fatalf("gpu member got %d tasks, cpu member %d; want 4 and 0", got[0], got[1])
	}
}

func TestRouterRejectsUnplaceableGPUTask(t *testing.T) {
	router := newGPURouterHarness(t)
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := router.Submit([]core.TaskDescription{{
		UID: core.NewUID("task"), Executable: "sleep",
		Duration: time.Second, Cores: 1, GPUs: 16,
	}})
	if err == nil {
		t.Fatal("16-GPU task accepted by a 4-GPU fleet")
	}
}

// inertPilot stands in for a started pilot at Submit: it takes a batch the
// way PilotRTS does — counted in the pilot's Outbox, where the router reads
// its load — but queues nothing, so what a Submit allocates is the
// composite's own (PilotRTS copies each batch into its store, as the Submit
// contract asks).
type inertPilot struct{ *PilotRTS }

func (p inertPilot) Start(context.Context) error { return nil }

func (p inertPilot) Submit(tasks []core.TaskDescription) error {
	p.out.Submitted(len(tasks))
	return nil
}

// A Submit in steady state allocates nothing of the composite's own: the
// placement fills a reused index slice, and each member's share is gathered
// into one reused buffer, whether the batch splits (tasks tagged for either
// CI) or one member takes it whole (least-loaded placement of a batch). The
// buffer keeps no description once Submit returns.
func TestCompositeSubmitAllocatesNothing(t *testing.T) {
	f := newFleet(t, "titan", "comet")
	var pilots router
	for _, cfg := range []Config{f.pilot("titan", 1024, 0), f.pilot("comet", 48, 0)} {
		p, err := newPilot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pilots = append(pilots, p)
	}
	c := &Composite{}
	c.Init(pilots.place)
	for _, p := range pilots {
		c.Add(inertPilot{p}, &p.out)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, tagged := range []bool{true, false} {
		tasks := make([]core.TaskDescription, 64)
		for i := range tasks {
			tasks[i] = core.TaskDescription{UID: core.NewUID("task"), Executable: "sleep", Cores: 1}
			if tagged {
				tasks[i].Tags = map[string]string{"resource": []string{"titan", "comet"}[i%2]}
			}
		}
		before := submitted(c)
		if err := c.Submit(tasks); err != nil { // warm-up: sizes the buffers
			t.Fatal(err)
		}
		const runs = 100 // AllocsPerRun adds a warm-up run of its own
		allocs := testing.AllocsPerRun(runs, func() {
			if err := c.Submit(tasks); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("tagged=%v: a 64-task Submit allocates %.1f objects, want 0", tagged, allocs)
		}
		after := submitted(c)
		if got, want := after[0]+after[1]-before[0]-before[1], (runs+2)*len(tasks); got != want {
			t.Errorf("tagged=%v: members took %d tasks, want %d", tagged, got, want)
		}
		if tagged && after[0]-before[0] != after[1]-before[1] {
			t.Errorf("tagged=%v: titan took %d tasks and comet %d, want half each", tagged, after[0]-before[0], after[1]-before[1])
		}
		for _, d := range c.batch[:cap(c.batch)] {
			if d.UID != "" {
				t.Fatalf("tagged=%v: the gather buffer still holds %s after Submit", tagged, d.UID)
			}
		}
	}
}

// refusingPilot is an inertPilot whose Submit fails, as a member that cannot
// take work does.
type refusingPilot struct{ inertPilot }

func (p refusingPilot) Submit([]core.TaskDescription) error { return errors.New("store closed") }

// A batch one member refuses is refused whole: that member is killed, and so
// is every member that already took part of the batch, so none of it can
// report; a member that took no part stays alive, and the composite is no
// longer alive, so the heartbeat replaces it.
func TestCompositeSubmitFailureKillsTheBatchsMembers(t *testing.T) {
	f := newFleet(t, "titan", "comet", "supermic")
	var pilots router
	for _, ci := range []string{"titan", "comet", "supermic"} {
		p, err := newPilot(f.pilot(ci, 16, 0))
		if err != nil {
			t.Fatal(err)
		}
		pilots = append(pilots, p)
	}
	c := &Composite{}
	c.Init(pilots.place)
	c.Add(inertPilot{pilots[0]}, &pilots[0].out)
	c.Add(refusingPilot{inertPilot{pilots[1]}}, &pilots[1].out)
	c.Add(inertPilot{pilots[2]}, &pilots[2].out)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	err := c.Submit([]core.TaskDescription{
		{UID: "task.a", Executable: "sleep", Cores: 1, Tags: map[string]string{"resource": "titan"}},
		{UID: "task.b", Executable: "sleep", Cores: 1, Tags: map[string]string{"resource": "comet"}},
	})
	if err == nil {
		t.Fatal("a batch a member refused was accepted")
	}
	if alive := []bool{pilots[0].Alive(), pilots[1].Alive(), pilots[2].Alive()}; alive[0] || alive[1] || !alive[2] {
		t.Fatalf("members alive after the refusal: %v, want [false false true]", alive)
	}
	if c.Alive() {
		t.Fatal("the composite is alive with dead members")
	}
}

// A composite whose Start fails part-way is stopped by its caller
// (core.RTS.Start), and that Stop releases the members that did start: the
// titan member's pilot completes and every goroutine it started exits.
func TestCompositeFailedStartReleasesStartedMembers(t *testing.T) {
	f := newFleet(t, "titan") // no adapter for "nowhere": its pilot is refused
	baseline := runtime.NumGoroutine()
	router, err := NewRouter([]Config{f.pilot("titan", 64, 0), f.pilot("nowhere", 64, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start(context.Background()); err == nil {
		t.Fatal("Start succeeded with a member on an unregistered CI")
	}
	first := router.Members()[0].(*PilotRTS)
	if first.pilot == nil {
		t.Fatal("the titan member never submitted its pilot")
	}
	if err := router.Stop(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		done, n := first.pilot.State().Terminal(), runtime.NumGoroutine()
		if done && n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Stop: titan pilot %s, %d goroutines running (%d before the router)",
				first.pilot.State(), n, baseline)
		}
	}
	if _, ok := <-router.Completions(); ok {
		t.Fatal("completion channel still open after Stop")
	}
}
