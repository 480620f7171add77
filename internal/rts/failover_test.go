package rts

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// TestLostTaskNeverFailsItsStage is a stress test of one interleaving: an RTS
// crashes in the middle of a stage, and failover hands its lost tasks to
// Dequeue, which commits each one's EXECUTED -> FAILED -> SCHEDULING ->
// SCHEDULED while Enqueue may still be finishing scheduleStage. Between the
// second record and the third every task of the stage reads terminal, one of
// them FAILED but on its way back; no completion check may run on that
// instant. Every instance crashes again after a few completions and the
// restart budget covers them all, so no run may fail.
func TestLostTaskNeverFailsItsStage(t *testing.T) {
	for w := 0; w < 8; w++ {
		w := w
		t.Run(fmt.Sprintf("worker-%d", w), func(t *testing.T) {
			t.Parallel()
			clock := vclock.NewScaled(time.Microsecond)
			requireLifetime(t, longWalltime, time.Microsecond)
			cluster, err := hpc.NewCluster(hpc.Spec{
				Name: "crashy", Nodes: 64, CoresPerNode: 1,
				MaxWalltime: 1000000 * time.Hour,
			}, clock)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			session := saga.NewSession()
			defer session.Close()
			session.Register(saga.NewClusterAdapter(cluster))
			for i := 0; i < 40; i++ {
				rng := rand.New(rand.NewSource(int64(w*1000 + i)))
				const pipelines, stages = 2, 2
				width := 1 + rng.Intn(4)
				am, err := core.NewAppManager(core.Config{
					Clock: clock,
					// Every instance completes at least one task before it
					// dies, so this many restarts always suffice.
					RTSRestarts:       pipelines * stages * width,
					HeartbeatInterval: time.Duration(1+rng.Intn(20)) * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				am.SetResource(core.ResourceDesc{Resource: "crashy", Cores: 8, Walltime: longWalltime})
				am.SetRTSFactory(Factory(Config{
					Clock:    clock,
					Session:  session,
					Registry: workload.NewRegistry(),
					Model:    FastModel(),
					Faults:   FaultPlan{CrashAfterCompletions: 1 + rng.Intn(width)},
				}))
				var pipes []*core.Pipeline
				for p := 0; p < pipelines; p++ {
					pipe := core.NewPipeline("p")
					for s := 0; s < stages; s++ {
						stage := core.NewStage("s")
						for k := 0; k < width; k++ {
							task := core.NewTask("t")
							task.Executable = "sleep"
							task.Duration = time.Duration(1+rng.Intn(20)) * time.Second
							stage.AddTask(task) //nolint:errcheck
						}
						pipe.AddStage(stage) //nolint:errcheck
					}
					pipes = append(pipes, pipe)
				}
				am.AddPipelines(pipes...) //nolint:errcheck
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				err = runApp(ctx, am)
				cancel()
				if err != nil {
					t.Fatalf("run %d (restarts %d): %v", i, am.RTSRestarts(), err)
				}
				for _, pipe := range pipes {
					if pipe.State() != core.PipelineDone {
						t.Fatalf("run %d: pipeline %s ended %s", i, pipe.UID, pipe.State())
					}
				}
			}
		})
	}
}
