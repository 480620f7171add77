package rts

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// manualHarness is a started PilotRTS on a vclock.Manual clock, for tests
// that must see exactly which executors sleep and when. Strict FIFO
// (Schedulers 1, QueueShards 1), so task i of a Submit is dispatch i.
type manualHarness struct {
	clock *vclock.Manual
	rts   *PilotRTS
	// base is what sleeps on the clock with no task in the agent (the
	// pilot's walltime watch).
	base int
	// goroutines is runtime.NumGoroutine() just before Start.
	goroutines int
}

func newManualHarness(t *testing.T, cores int, dispatch time.Duration) *manualHarness {
	t.Helper()
	clock := vclock.NewManual()
	cluster, err := hpc.NewCluster(hpc.Spec{
		Name: "manual", Nodes: cores, CoresPerNode: 1, GPUsPerNode: 0,
		MaxWalltime: 1000000 * time.Hour,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	session := saga.NewSession()
	t.Cleanup(session.Close)
	session.Register(saga.NewClusterAdapter(cluster))
	model := FastModel()
	model.DispatchLatency = dispatch
	r, err := New(Config{
		Resource:    core.ResourceDesc{Resource: "manual", Cores: cores, Walltime: 999999 * time.Hour},
		Clock:       clock,
		Session:     session,
		Registry:    workload.NewRegistry(),
		Model:       model,
		Schedulers:  1,
		QueueShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Stop() })
	h := &manualHarness{clock: clock, rts: r, goroutines: runtime.NumGoroutine()}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The cluster started the pilot inside Start (no queue wait) and its
	// walltime watch is the one sleeper that is not a task.
	h.await(t, "the pilot's walltime watch", func() bool { return clock.Pending() >= 1 })
	h.base = clock.Pending()
	return h
}

// await polls cond, failing the test if it does not hold within 10 s.
func (h *manualHarness) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (%d sleepers on the clock, %d free cores, %d executors started)",
				what, h.clock.Pending(), h.rts.agent.FreeCores(), h.rts.agent.spawned.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// sleeping waits until exactly n tasks sleep on the clock.
func (h *manualHarness) sleeping(t *testing.T, n int) {
	t.Helper()
	h.await(t, fmt.Sprintf("%d sleeping tasks", n), func() bool { return h.clock.Pending() == h.base+n })
}

func (h *manualHarness) submit(t *testing.T, prefix string, n int, d time.Duration) {
	t.Helper()
	descs := make([]core.TaskDescription, n)
	for i := range descs {
		descs[i] = sleepTask(fmt.Sprintf("%s%03d", prefix, i), d, 1)
	}
	if err := h.rts.Submit(descs); err != nil {
		t.Fatal(err)
	}
}

func (h *manualHarness) collect(t *testing.T, n int) map[string]core.TaskResult {
	t.Helper()
	out := make(map[string]core.TaskResult, n)
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case res := <-h.rts.Completions():
			out[res.UID] = res
		case <-timeout:
			t.Fatalf("timed out with %d of %d results", len(out), n)
		}
	}
	return out
}

// stopAndCheckGoroutines stops the RTS and waits for every goroutine Start
// and the agent created to be gone.
func (h *manualHarness) stopAndCheckGoroutines(t *testing.T) {
	t.Helper()
	h.rts.Stop()
	h.await(t, fmt.Sprintf("the goroutine count to fall from %d back to %d", runtime.NumGoroutine(), h.goroutines),
		func() bool { return runtime.NumGoroutine() <= h.goroutines })
}

// TestExecutorsAreReused: zero-duration tasks on a pilot wide enough to run
// them all at once start far fewer executors than tasks — the scheduler
// yields to the ones it has before it pays for another.
func TestExecutorsAreReused(t *testing.T) {
	const n = 4096
	h := newHarness(t, func(c *Config) { c.Resource.Cores = n })
	start(t, h)
	descs := make([]core.TaskDescription, n)
	for i := range descs {
		descs[i] = sleepTask(fmt.Sprintf("t%04d", i), 0, 1)
	}
	if err := h.rts.Submit(descs); err != nil {
		t.Fatal(err)
	}
	collect(t, h, n)
	spawned := h.rts.agent.spawned.Load()
	t.Logf("%d tasks on %d cores started %d executors", n, n, spawned)
	if spawned < 1 || spawned > n/4 {
		t.Fatalf("%d tasks started %d executors, want far fewer than tasks", n, spawned)
	}
}

// TestReuseNeverQueuesBehindASleeper: tasks that fill the pilot and sleep all
// run at once — each gets an executor of its own, none waits for one that is
// asleep — and a second wave then reuses exactly those executors. The pilot is
// wider than eagerExecutors, so the later placements go through the yield.
func TestReuseNeverQueuesBehindASleeper(t *testing.T) {
	const cores = 2 * eagerExecutors
	const d = 100 * time.Second
	h := newManualHarness(t, cores, 0)
	for wave := 1; wave <= 2; wave++ {
		began := h.clock.Now()
		h.submit(t, fmt.Sprintf("w%d.", wave), cores, d)
		h.sleeping(t, cores)
		h.clock.Advance(d)
		for uid, res := range h.collect(t, cores) {
			if !res.Started.Equal(began) || !res.Finished.Equal(began.Add(d)) || res.ExitCode != 0 {
				t.Fatalf("wave %d: %s ran %v..%v (exit %d), want %v..%v",
					wave, uid, res.Started, res.Finished, res.ExitCode, began, began.Add(d))
			}
		}
		h.await(t, "every core to be returned", func() bool { return h.rts.agent.FreeCores() == cores })
		if got := h.rts.agent.spawned.Load(); got != cores {
			t.Fatalf("after wave %d: %d executors started, want %d", wave, got, cores)
		}
	}
}

// TestDispatchStaggerSurvivesReuse: with DispatchLatency L the i-th task of a
// burst starts at i·L, exactly as when each task had a goroutine of its own —
// before and past the point where placements start to yield.
func TestDispatchStaggerSurvivesReuse(t *testing.T) {
	const cores = eagerExecutors + 16
	const lat = time.Second
	const d = 1000 * time.Second // nothing ends while the burst is starting
	h := newManualHarness(t, cores, lat)
	began := h.clock.Now()
	h.submit(t, "s", cores, d)
	for step := 1; step < cores; step++ {
		h.sleeping(t, cores) // each task: its start delay, then its kernel
		h.clock.Advance(lat)
	}
	h.sleeping(t, cores)
	h.clock.Advance(d)
	results := h.collect(t, cores)
	for i := 0; i < cores; i++ {
		uid := fmt.Sprintf("s%03d", i)
		if want := began.Add(time.Duration(i) * lat); !results[uid].Started.Equal(want) {
			t.Fatalf("%s started at %v, want %v", uid, results[uid].Started, want)
		}
	}
}

// TestStopLeavesNoExecutor: Stop returns with every agent goroutine gone
// whether its executors are parked, in the middle of a task, or sleeping out a
// dispatch delay. A send on a closed work channel would panic here.
func TestStopLeavesNoExecutor(t *testing.T) {
	t.Run("parked", func(t *testing.T) {
		h := newManualHarness(t, 8, 0)
		h.submit(t, "p", 64, 0)
		h.collect(t, 64)
		h.await(t, "every core to be returned", func() bool { return h.rts.agent.FreeCores() == 8 })
		h.stopAndCheckGoroutines(t)
	})
	t.Run("mid-task", func(t *testing.T) {
		h := newManualHarness(t, 8, 0)
		h.submit(t, "m", 12, time.Hour) // 8 run, 4 wait for cores
		h.sleeping(t, 8)
		h.stopAndCheckGoroutines(t)
	})
	t.Run("dispatch-delay", func(t *testing.T) {
		h := newManualHarness(t, 8, time.Hour)
		h.submit(t, "d", 4, 0) // the first runs at once; three sleep out their stagger
		h.sleeping(t, 3)
		h.stopAndCheckGoroutines(t)
	})
	t.Run("while-dispatching", func(t *testing.T) {
		h := newManualHarness(t, 8, 0)
		h.submit(t, "w", 20000, 0)
		h.collect(t, 1) // the scheduler is mid-stream
		h.stopAndCheckGoroutines(t)
	})
}

// TestRejectedTaskTakesNoExecutor: a task the pilot can never fit reports its
// failure without an executor being started or borrowed for it.
func TestRejectedTaskTakesNoExecutor(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	gpu := sleepTask("gpu", time.Second, 1)
	gpu.GPUs = 1 // supermic has none
	if err := h.rts.Submit([]core.TaskDescription{sleepTask("huge", time.Second, 10000), gpu}); err != nil {
		t.Fatal(err)
	}
	for _, res := range collect(t, h, 2) {
		if res.ExitCode == 0 || res.Error == "" {
			t.Fatalf("rejected task reported %+v", res)
		}
	}
	if got := h.rts.agent.spawned.Load(); got != 0 {
		t.Fatalf("rejected tasks started %d executors", got)
	}
	if s := h.rts.Stats(); s.TasksCompleted != 2 || s.TasksFailed != 2 || s.Utilization.TasksInFlight != 0 {
		t.Fatalf("stats after two rejections: %+v", s)
	}
}
