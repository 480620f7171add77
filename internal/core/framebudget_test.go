package core_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/rts"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// raceBuild is set by race_on_test.go when the race detector instruments the
// build.
var raceBuild bool

// TestStageFrameBudget counts synchronization round trips per stage on the
// latency-bound shape (1 x 256 x 8 on 64 cores, nothing modelled): one
// scheduling frame, one Emgr frame, one Dequeue frame for the stage's
// results and one for the stage's DONE. Every sync frame is one message on
// the states queue, so that queue's publish count is the frame count. Run it
// with -cpu 1,2,4: the budget holds only while the eight results of a stage
// reach the committer together. How often they do is up to the Go scheduler
// (a yielded drain is resumed early about once in 61 stages on one P, and by
// whichever P idles first on several), so the budget is asked of the best of
// three runs; losing the coalescing costs 10+ frames per stage in every run.
// The race detector slows the executors several-fold and with them the
// window the yield covers, so under it the run is made but not judged.
//
// The same runs count the broker's PerOpDelay calls, each of which charges
// the modelled management overhead of paper Figs 7-9 (internal/experiments).
// At f8ccdf0 the best of three read 20.72 calls per stage at -cpu 1 (4.12
// frames), 21.50 at -cpu 2 (4.25) and 20.91 at -cpu 4 (4.15): six per frame
// less four, to within 0.01. A frame is four (it and its ack, each published
// and popped), a stage's pending message two, its results' done message
// two, and every frame past a stage's four is a result drain of its own with
// its own done message. A hand-off that starts or stops charging the model
// moves that by a whole call per stage or more, at any frame count and under
// the race detector too.
func TestStageFrameBudget(t *testing.T) {
	const budget = 4.5
	best := chainRun{frames: math.Inf(1)}
	for attempt := 0; attempt < 3 && best.frames > budget; attempt++ {
		if r := runChain(t); r.frames < best.frames {
			best = r
		}
	}
	if want := 6*best.frames - 4; math.Abs(best.ops-want) > 0.1 {
		t.Fatalf("%.2f PerOpDelay calls per stage at %.2f frames per stage, want %.2f (six per frame less four)", best.ops, best.frames, want)
	}
	if best.frames <= budget {
		return
	}
	if raceBuild {
		t.Skipf("%.2f sync round trips per stage under the race detector; the budget of %.1f is not asserted", best.frames, budget)
	}
	t.Fatalf("%.2f sync round trips per stage at best, budget %.1f (expected 4.0)", best.frames, budget)
}

// chainRun is what one run of the chain application reads at its last
// PostExec, per stage: the states queue's publish count (the sync frames) and
// the broker's PerOpDelay calls.
type chainRun struct{ frames, ops float64 }

// runChain runs the chain application once on a broker of its own that
// counts PerOpDelay calls.
func runChain(t *testing.T) chainRun {
	t.Helper()
	const stages, tasks = 256, 8
	// 72 h of pilot walltime at this scale is 64.8 s of wall time.
	clock := vclock.NewScaled(250 * time.Microsecond)
	session := saga.NewSession()
	defer session.Close()
	adapter, err := saga.NewCatalogAdapter("supermic", clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Register(adapter); err != nil {
		t.Fatal(err)
	}
	var ops atomic.Int64
	brk := broker.New(broker.Options{PerOpDelay: func() { ops.Add(1) }})
	defer brk.Close()
	am, err := core.NewAppManager(core.Config{Clock: clock, Host: hostmodel.Null(), Broker: brk})
	if err != nil {
		t.Fatal(err)
	}
	am.SetResource(core.ResourceDesc{Resource: "supermic", Cores: 64, Walltime: 72 * time.Hour})
	am.SetRTSFactory(rts.Factory(rts.Config{
		Clock:    clock,
		Session:  session,
		Registry: workload.NewRegistry(),
		Model:    rts.FastModel(),
	}))

	pipe := core.NewPipeline("chain")
	var frames uint64
	var calls int64
	for s := 0; s < stages; s++ {
		stage := core.NewStage("s")
		for k := 0; k < tasks; k++ {
			task := core.NewTask("t")
			task.Executable = "sleep"
			stage.AddTask(task) //nolint:errcheck // a fresh stage accepts tasks
		}
		if s == stages-1 {
			stage.PostExec = func() error {
				st, err := am.Broker().Stats(core.QueueStates)
				frames, calls = st.Published, ops.Load()
				return err
			}
		}
		pipe.AddStage(stage) //nolint:errcheck // a fresh pipeline accepts stages
	}
	if err := am.AddPipelines(pipe); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	r := chainRun{frames: float64(frames) / stages, ops: float64(calls) / stages}
	t.Logf("%d sync frames over %d stages: %.2f per stage; %d PerOpDelay calls: %.2f per stage", frames, stages, r.frames, calls, r.ops)
	return r
}
