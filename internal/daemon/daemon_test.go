package daemon

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rts"
)

func newTestDaemon(t *testing.T, mutate func(*Config)) *Daemon {
	t.Helper()
	cfg := Config{
		Resource:     "supermic",
		Cores:        8,
		Walltime:     72 * time.Hour,
		TimeScale:    time.Microsecond,
		Model:        rts.FastModel(),
		RunRetention: time.Minute,
		Seed:         7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// testApp builds an appjson document with nPipes pipelines of nTasks tasks
// each. Identical calls produce identical pipeline/stage/task names and
// therefore identical structural UIDs and queue names across runs — the
// overlap the runs' private brokers must keep apart.
func testApp(cores, nPipes, nTasks int, durMS int) []byte {
	doc := fmt.Sprintf(`{"resource":{"name":"supermic","cores":%d,"walltime_s":3600},"pipelines":[`, cores)
	for p := 0; p < nPipes; p++ {
		if p > 0 {
			doc += ","
		}
		doc += fmt.Sprintf(`{"name":"p%d","stages":[{"name":"s0","tasks":[{"name":"t","executable":"sleep","duration_s":%g,"cores":1,"copies":%d}]}]}`,
			p, float64(durMS)/1000, nTasks)
	}
	return []byte(doc + "]}")
}

func waitState(t *testing.T, d *Daemon, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := d.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	info, _ := d.Info(id)
	t.Fatalf("run %s never reached %s (state %s, err %q)", id, want, info.State, info.Err)
}

// Two concurrent runs with byte-identical applications — same structural
// UIDs, same queue basenames — must not leak messages or events across each
// other, and must finish independently.
func TestDaemonMultiRunIsolation(t *testing.T) {
	d := newTestDaemon(t, nil)
	const tasks = 12
	// A run can finish before Subscribe is reached; hold dispatch on a
	// backlog no tenant will ever queue until both subscriptions exist.
	d.pool.HoldUntilQueued(map[string]int{"alice": tasks + 1})
	idA, err := d.Submit("alice", false, testApp(4, 1, tasks, 5))
	if err != nil {
		t.Fatal(err)
	}
	idB, err := d.Submit("bob", false, testApp(4, 1, tasks, 5))
	if err != nil {
		t.Fatal(err)
	}
	subA, err := d.Subscribe(idA, core.EventFilter{Kinds: []core.EventKind{core.EventTask}})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := d.Subscribe(idB, core.EventFilter{Kinds: []core.EventKind{core.EventTask}})
	if err != nil {
		t.Fatal(err)
	}
	d.pool.HoldUntilQueued(nil)
	if err := d.Wait(context.Background(), idA); err != nil {
		t.Fatalf("run A: %v", err)
	}
	if err := d.Wait(context.Background(), idB); err != nil {
		t.Fatalf("run B: %v", err)
	}
	count := func(sub *core.EventSub) int {
		done := 0
		for ev := range sub.C() {
			if ev.To == "DONE" {
				done++
			}
		}
		return done
	}
	// Each run must observe exactly its own task completions: a leaked
	// message would either double-complete one run or starve the other.
	if got := count(subA); got != tasks {
		t.Fatalf("run A saw %d task completions, want %d", got, tasks)
	}
	if got := count(subB); got != tasks {
		t.Fatalf("run B saw %d task completions, want %d", got, tasks)
	}
	if leaked := d.LeakedLeases(); leaked != 0 {
		t.Fatalf("leaked leases: %d", leaked)
	}
	if claimed := d.PoolClaimed(); claimed != 0 {
		t.Fatalf("claimed cores after both runs: %d", claimed)
	}
}

// waitPipelineState polls a live run until its named pipeline reports the
// wanted state.
func waitPipelineState(t *testing.T, d *Daemon, id, pipeUID, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if am, _, err := d.view(id); err == nil && am != nil {
			for _, p := range am.Pipelines() {
				if p.UID == pipeUID && string(p.State()) == want {
					return
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run %s pipeline %s never reached %s", id, pipeUID, want)
}

// Pause, Resume and Cancel act on exactly one run: the sibling run with the
// same entity UIDs keeps executing to DONE.
func TestDaemonIndependentCancelPause(t *testing.T) {
	d := newTestDaemon(t, nil)
	// A runs long enough (virtual task time, ~80ms wall at this timescale)
	// to be paused mid-flight; B shares the pilot and the same entity UIDs.
	a, err := d.Submit("alice", false, testApp(4, 1, 64, 5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Submit("bob", false, testApp(4, 1, 64, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	waitPipelineState(t, d, a, "pipeline.000", "SCHEDULING")
	if err := d.Pause(a, "pipeline.000"); err != nil {
		t.Fatalf("pause: %v", err)
	}
	waitPipelineState(t, d, a, "pipeline.000", "SUSPENDED")
	// B is untouched by A's pause: it runs to DONE.
	if err := d.Wait(context.Background(), b); err != nil {
		t.Fatalf("sibling run while A paused: %v", err)
	}
	waitState(t, d, b, StateDone)
	if err := d.Resume(a, "pipeline.000"); err != nil {
		t.Fatalf("resume: %v", err)
	}
	waitPipelineState(t, d, a, "pipeline.000", "SCHEDULING")
	if err := d.Cancel(a, "test"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitState(t, d, a, StateCanceled)
	if claimed := d.PoolClaimed(); claimed != 0 {
		t.Fatalf("claimed cores after cancel: %d", claimed)
	}
}

// A hosted run reports the scheduler loops the shared pilot really runs:
// with -schedulers unset the pool resolves min(GOMAXPROCS, shards), and the
// run's LiveSchedulers must say the same, not the unset knob's floor of 1.
func TestHostedRunReportsThePoolsSchedulers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := newTestDaemon(t, nil)
	id, err := d.Submit("alice", false, testApp(4, 1, 64, 5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	waitPipelineState(t, d, id, "pipeline.000", "SCHEDULING")
	prog, err := d.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Store.Schedulers < 2 || prog.LiveSchedulers != prog.Store.Schedulers {
		t.Fatalf("LiveSchedulers = %d, Store.Schedulers = %d: want both the pool's count (>= 2 at GOMAXPROCS 2)",
			prog.LiveSchedulers, prog.Store.Schedulers)
	}
	if err := d.Cancel(id, "test"); err != nil {
		t.Fatal(err)
	}
	waitState(t, d, id, StateCanceled)
}

// A hosted run charges its broker traversals to the EnTK management
// overhead, as an embedded run does: the host's message cost is paid on top
// of its fixed MgmtBase, not skipped because the run is hosted.
func TestHostedRunChargesItsBrokerTraversals(t *testing.T) {
	d := newTestDaemon(t, nil)
	const tasks = 8
	// Hold dispatch so the run cannot end before its manager is read.
	d.pool.HoldUntilQueued(map[string]int{"alice": tasks + 1})
	id, err := d.Submit("alice", false, testApp(4, 1, tasks, 5))
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := d.view(id)
	if err != nil || am == nil {
		t.Fatalf("run %s has no manager while held (err %v)", id, err)
	}
	d.pool.HoldUntilQueued(nil)
	if err := d.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	mgmt := am.Profiler().Report().EnTKManagement
	if base := d.host.MgmtBase.Seconds(); mgmt <= base {
		t.Fatalf("EnTK management overhead %.4f s, want more than the host's MgmtBase %.4f s", mgmt, base)
	}
	t.Logf("EnTK management overhead %.4f s (MgmtBase %.4f s)", mgmt, d.host.MgmtBase.Seconds())
}

// Admission: a claim larger than the pilot rejects permanently; saturation
// with a full queue rejects; saturation with queue room parks the run in
// QUEUED and admits it when cores free up.
func TestDaemonAdmissionControl(t *testing.T) {
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.AdmissionQueueLen = 1
		cfg.Tenants = map[string]TenantConfig{"capped": {Weight: 1, MaxCores: 2}}
	})
	if _, err := d.Submit("alice", false, testApp(16, 1, 1, 1)); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("oversized claim: want ErrAdmissionRejected, got %v", err)
	}
	if _, err := d.Submit("capped", false, testApp(4, 1, 1, 1)); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("quota claim: want ErrAdmissionRejected, got %v", err)
	}
	// The hog claims the whole pilot and runs long (virtual task time) so
	// the saturation assertions below see a stable picture.
	hog, err := d.Submit("alice", false, testApp(8, 1, 64, 12_000_000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, hog, StateRunning)
	// Pool is saturated: the next submission queues...
	queued, err := d.Submit("bob", false, testApp(4, 1, 4, 5))
	if err != nil {
		t.Fatalf("queue-then-admit submit: %v", err)
	}
	waitState(t, d, queued, StateQueued)
	// ...and with the one queue slot taken, the next is rejected.
	if _, err := d.Submit("carol", false, testApp(4, 1, 1, 1)); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("queue full: want ErrAdmissionRejected, got %v", err)
	}
	// Freeing the hog's cores admits the queued run, which then completes.
	if err := d.Cancel(hog, "make room"); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), queued); err != nil {
		t.Fatalf("queued run after admit: %v", err)
	}
	waitState(t, d, queued, StateDone)
}

// List prunes terminal runs past retention; a healthy lifecycle leaks no
// leases.
func TestDaemonListPrunesTerminalRuns(t *testing.T) {
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.RunRetention = 30 * time.Millisecond
	})
	id, err := d.Submit("alice", false, testApp(2, 1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(d.List()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("terminal run never pruned: %+v", d.List())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := d.Info(id); err == nil {
		t.Fatal("pruned run still resolvable")
	}
	if leaked := d.LeakedLeases(); leaked != 0 {
		t.Fatalf("leaked leases: %d", leaked)
	}
}

// Weighted fairness survives the full daemon path: two tenants with 3:1
// weights submitting identical backlogged runs see ~3:1 dispatch.
func TestDaemonWeightedFairness(t *testing.T) {
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.Cores = 4
		cfg.OvercommitFactor = 2
		cfg.TraceDispatch = true
		cfg.Tenants = map[string]TenantConfig{
			"heavy": {Weight: 3},
			"light": {Weight: 1},
		}
	})
	// Runs reach the pool at their own pace; hold dispatch until both
	// backlogs are queued so both tenants compete from dispatch 0.
	d.pool.HoldUntilQueued(map[string]int{"heavy": 60, "light": 60})
	h, err := d.Submit("heavy", false, testApp(4, 1, 60, 20))
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Submit("light", false, testApp(4, 1, 60, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), l); err != nil {
		t.Fatal(err)
	}
	trace := d.DispatchTrace()
	var heavy, light int
	for _, tn := range trace {
		switch tn {
		case "heavy":
			heavy++
		case "light":
			light++
		}
	}
	if heavy != 60 || light != 60 || len(trace) != 120 {
		t.Fatalf("dispatch totals heavy=%d light=%d of %d, want 60 each", heavy, light, len(trace))
	}
	// Measure the ratio over an early window where both tenants still had
	// backlog (the tail degenerates to whichever has tasks left).
	if len(trace) < 40 {
		t.Fatalf("dispatch trace too short: %d", len(trace))
	}
	hc, lc := 0, 0
	for _, tn := range trace[:40] {
		if tn == "heavy" {
			hc++
		} else {
			lc++
		}
	}
	ratio := float64(hc) / float64(lc)
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("dispatch ratio %.2f (heavy=%d light=%d), want ~3:1", ratio, hc, lc)
	}
}

// finishRun holds "no lease outlives its run" itself: a run that ends
// without having returned its lease has it revoked as it ends, its cores
// returned and the leak counted, once.
func TestFinishRunRevokesLeaseThatOutlivesItsRun(t *testing.T) {
	d := newTestDaemon(t, nil)
	lease, err := d.pool.Admit(rts.LeaseSpec{Tenant: "alice", Cores: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A run whose owner finished it and never stopped its lease.
	e := &runEntry{id: "run.forged", tenant: "alice", claim: 3, state: StateRunning, lease: lease, doneCh: make(chan struct{})}
	d.mu.Lock()
	d.runs[e.id] = e
	d.mu.Unlock()
	if got := d.PoolClaimed(); got != 3 {
		t.Fatalf("claimed cores before the run ends = %d, want 3", got)
	}

	d.finishRun(e, StateFailed, errors.New("forged"))
	if lease.Alive() {
		t.Error("leaked lease not revoked")
	}
	if got := d.LeakedLeases(); got != 1 {
		t.Errorf("LeakedLeases = %d, want 1", got)
	}
	if got := d.PoolClaimed(); got != 0 {
		t.Errorf("claimed cores after the run ended = %d, want 0", got)
	}
	d.mu.Lock()
	kept := e.lease
	d.mu.Unlock()
	if kept != nil {
		t.Error("the entry still holds the revoked lease")
	}
	d.finishRun(e, StateFailed, errors.New("forged again"))
	if got := d.LeakedLeases(); got != 1 {
		t.Errorf("a second finishRun counted the same leak again: %d", got)
	}
}

// A second daemon on the same JournalRoot numbers its runs on from the
// first's, so a journaled run starts a journal of its own instead of
// resuming the first daemon's run of the same ID.
func TestSecondDaemonOnAJournalRootStartsFreshRuns(t *testing.T) {
	root := t.TempDir()
	journaled := func(cfg *Config) { cfg.JournalRoot = root }
	d1 := newTestDaemon(t, journaled)
	first, err := d1.Submit("alice", true, testApp(8, 1, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Wait(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	d1.Stop()

	d2 := newTestDaemon(t, journaled)
	second, err := d2.Submit("bob", true, testApp(8, 2, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Errorf("the second daemon reused run ID %s", first)
	}
	if err := d2.Wait(context.Background(), second); err != nil {
		t.Fatal(err)
	}
	p, err := d2.Snapshot(second)
	if err != nil {
		t.Fatal(err)
	}
	if p.TasksDone != 16 || p.TaskAttempts != 16 {
		t.Fatalf("the second daemon's 2x8 run did %d tasks in %d attempts, want 16 in 16", p.TasksDone, p.TaskAttempts)
	}
}
