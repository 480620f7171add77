package repro

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/hostmodel"
	"repro/internal/rts"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// footprintApp is the shape of the end-to-end benchmark's daemon-open runs:
// one pipeline, two stages of eight one-core tasks.
var footprintApp = []byte(`{"resource":{"name":"supermic","cores":8,"walltime_s":3600},"pipelines":[{"name":"p","stages":[` +
	`{"name":"s0","tasks":[{"name":"t","executable":"sleep","cores":1,"copies":8}]},` +
	`{"name":"s1","tasks":[{"name":"t","executable":"sleep","cores":1,"copies":8}]}]}]}`)

// TestHostedRunFootprint holds a daemon-hosted run to what its tasks cost.
// A finished run stays listed for RunRetention (an hour), so what it keeps
// alive is what a busy daemon's heap is made of: it must be a summary (it
// was the whole AppManager and lease, 55 KB per run). And a run's fixed
// scaffolding — queues, consumers, clients, lease, names — must not grow
// back: the ceiling is ~5 % above what a run allocates today (389-395; it
// was 519 while every hand-off rebuilt its scratch and every task carried
// its three per-task allocations, and 691 with the scaffolding this bounds).
func TestHostedRunFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		warm, runs       = 20, 500
		keptCeiling      = 2 << 10 // bytes per finished run
		allocsPerRunCeil = 415
	)
	d, err := daemon.New(daemon.Config{
		Resource:  "supermic",
		Cores:     64,
		Walltime:  72 * time.Hour,
		TimeScale: 100 * time.Microsecond, // 26 s of wall before the pilot expires
		Model:     rts.FastModel(),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	run := func() {
		id, err := d.Submit("footprint", false, footprintApp)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	settled := func() (ms runtime.MemStats) {
		runtime.GC()
		runtime.GC() // the second pass frees what the first one's finalizers and sweeps released
		runtime.ReadMemStats(&ms)
		return ms
	}
	for i := 0; i < warm; i++ {
		run()
	}
	before := settled()
	for i := 0; i < runs; i++ {
		run()
	}
	var mid runtime.MemStats
	runtime.ReadMemStats(&mid)
	after := settled()

	if n := len(d.List()); n != warm+runs {
		t.Fatalf("%d runs listed, want every one of %d retained", n, warm+runs)
	}
	kept := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / runs
	objects := (int64(after.HeapObjects) - int64(before.HeapObjects)) / runs
	allocs := (mid.Mallocs - before.Mallocs) / runs
	t.Logf("per finished run: %d B / %d objects kept, %d allocations", kept, objects, allocs)
	if kept > keptCeiling {
		t.Errorf("a finished run keeps %d B alive, want under %d", kept, keptCeiling)
	}
	if allocs > allocsPerRunCeil {
		t.Errorf("a hosted run made %d allocations, want at most %d", allocs, allocsPerRunCeil)
	}
	if n := d.LeakedLeases(); n != 0 {
		t.Errorf("%d leaked leases", n)
	}
}

// taskPathAllocs runs a pipelines × stages × tasks application of zero-cost
// sleep tasks through the real embedded stack — entk.NewAppManager's assembly
// with the simulated machine taken out (rts.FastModel, hostmodel.Null), as the
// end-to-end benchmark wires it — and returns the allocations Start→Wait made
// per task. A durable run journals into a fresh directory, with the RTS audit
// log beside the segments.
func taskPathAllocs(t *testing.T, pipelines, stages, tasks int, durable bool) float64 {
	t.Helper()
	var journalDir, storePath string
	if durable {
		journalDir = t.TempDir()
		storePath = filepath.Join(journalDir, "rts-audit.log")
	}
	clock := vclock.NewScaled(250 * time.Microsecond) // 72 h of walltime = 64.8 s of wall
	session := saga.NewSession()
	defer session.Close()
	adapter, err := saga.NewCatalogAdapter("supermic", clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Register(adapter); err != nil {
		t.Fatal(err)
	}
	am, err := core.NewAppManager(core.Config{Clock: clock, Host: hostmodel.Null(), JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	am.SetResource(core.ResourceDesc{Resource: "supermic", Cores: 4096, Walltime: 72 * time.Hour})
	am.SetRTSFactory(rts.Factory(rts.Config{
		Clock: clock, Session: session, Registry: workload.NewRegistry(), Model: rts.FastModel(), StorePath: storePath,
	}))
	for p := 0; p < pipelines; p++ {
		pipe := core.NewPipeline("p")
		for s := 0; s < stages; s++ {
			stage := core.NewStage("s")
			for k := 0; k < tasks; k++ {
				task := core.NewTask("t")
				task.Executable = "sleep"
				stage.AddTask(task) //nolint:errcheck // a fresh stage accepts tasks
			}
			pipe.AddStage(stage) //nolint:errcheck // a fresh pipeline accepts stages
		}
		if err := am.AddPipelines(pipe); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run, err := am.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(pipelines*stages*tasks)
}

// TestTaskPathAllocBudget holds the control path to allocating for the frames
// a task rides — one body per message, one delivery per pop, the task's own
// state — and not per task or per hand-off. The deep shape (4-task stages)
// pays every per-frame cost once per four tasks; the wide shape (one
// 4096-task stage) pays nothing but the per-task ones. Ceilings are ~10 %
// above what the shapes allocate today; the best of three runs is held to
// them, because how a stage's results coalesce into frames is up to the
// scheduler (TestStageFrameBudget).
func TestTaskPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		name                     string
		pipelines, stages, tasks int
		durable                  bool
		ceil                     float64
	}{
		{"deep-16x16x4", 16, 16, 4, false, 2.8},   // 2.1-2.5 at -cpu 1,2,4; 3.3-3.8 with encoded messages, 13.3 before
		{"wide-1x1x4096", 1, 1, 4096, false, 0.4}, // 0.20-0.31, all of it the run's fixed cost; it was 3.2
		// Journal, mirror, snapshots and the RTS audit log on: 0.30-0.46, what
		// wide pays plus ~25 snapshots' file handling (a directory listing, a
		// temporary, a rename each); six journaled transitions per task
		// allocate nothing of their own. It was 6.2.
		{"durable-1x2x2048", 1, 2, 2048, true, 0.6},
	} {
		t.Run(c.name, func(t *testing.T) {
			best := 0.0
			for i := 0; i < 3; i++ {
				if a := taskPathAllocs(t, c.pipelines, c.stages, c.tasks, c.durable); i == 0 || a < best {
					best = a
				}
			}
			t.Logf("%.2f allocations per task (best of 3)", best)
			if best > c.ceil {
				t.Errorf("%.2f allocations per task, want at most %.2f", best, c.ceil)
			}
		})
	}
}
