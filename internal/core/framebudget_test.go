package core_test

import (
	"context"
	"math"
	"testing"
	"time"

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
func TestStageFrameBudget(t *testing.T) {
	const budget = 4.5
	best := math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		if best = min(best, chainFramesPerStage(t)); best <= budget {
			return
		}
	}
	if raceBuild {
		t.Skipf("%.2f sync round trips per stage under the race detector; the budget of %.1f is not asserted", best, budget)
	}
	t.Fatalf("%.2f sync round trips per stage at best, budget %.1f (expected 4.0)", best, budget)
}

// chainFramesPerStage runs the chain application once and returns the states
// queue's publish count at the last PostExec over the stage count.
func chainFramesPerStage(t *testing.T) float64 {
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
	am, err := core.NewAppManager(core.Config{Clock: clock, Host: hostmodel.Null()})
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
				frames = st.Published
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
	perStage := float64(frames) / stages
	t.Logf("%d sync frames over %d stages: %.2f per stage", frames, stages, perStage)
	return perStage
}
