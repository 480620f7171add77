// Adaptive ensemble-MD example: the class of biomolecular workloads the
// paper's introduction motivates ("a shift from running single long running
// tasks towards multiple shorter running tasks").
//
// The application runs rounds of concurrent MD simulations; after each
// round, an analysis task inspects the ensemble and a Stage PostExec hook
// decides — at runtime — whether to extend the pipeline with another round.
// This is EnTK's adaptivity: "branching events can be specified as tasks
// where a decision is made about the runtime flow" (§II-B1).
//
// The example drives the run through the non-blocking Start/Wait handle:
// a typed event subscription renders stage transitions live, and after the
// first analysis round the PostExec hook *pauses* the pipeline through the
// run handle (the paper's suspension primitive) — as a real adaptive
// application would while an out-of-band decision service deliberates —
// then resumes it from a second goroutine.
//
//	go run ./examples/adaptive-md
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sync/atomic"
	"time"

	"repro/entk"
)

const (
	replicas  = 8
	maxRounds = 5
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the application and writes its report to w. It fails unless
// the pipeline ends DONE.
func run(w io.Writer) error {
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource: entk.Resource{
			Name:     "comet",
			Cores:    replicas,
			Walltime: 12 * time.Hour,
		},
		TimeScale:   200 * time.Microsecond,
		TaskRetries: 2,
		Compute:     true,
	})
	if err != nil {
		return err
	}

	pipeline := entk.NewPipeline("adaptive-md")
	var round int32
	// The run handle is handed to the PostExec hook through a 1-slot
	// channel: the hook blocks until Start has returned, so the pause
	// branch can never be skipped by a scheduling race.
	runCh := make(chan *entk.Run, 1)
	resumed := make(chan struct{})
	var resumeErr error // read once resumed is closed

	// "Converged" when the decision task has seen enough rounds; a real
	// application would measure, e.g., conformational-space coverage.
	var addRound func() error
	mdStage := func(n int32) *entk.Stage {
		s := entk.NewStage(fmt.Sprintf("md-round-%d", n))
		for i := 0; i < replicas; i++ {
			t := entk.NewTask(fmt.Sprintf("replica-%d-%02d", n, i))
			t.Executable = "mdrun"
			t.Arguments = []string{"-nsteps", "40"}
			t.Duration = 600 * time.Second
			t.CPUReqs = entk.CPUReqs{Processes: 1}
			s.AddTask(t) //nolint:errcheck
		}
		return s
	}
	analysisStage := func(n int32) *entk.Stage {
		s := entk.NewStage(fmt.Sprintf("analysis-%d", n))
		t := entk.NewTask(fmt.Sprintf("msm-build-%d", n))
		t.Executable = "sleep"
		t.Duration = 60 * time.Second
		s.AddTask(t) //nolint:errcheck
		s.PostExec = addRound
		return s
	}
	addRound = func() error {
		n := atomic.AddInt32(&round, 1)
		if n >= maxRounds {
			fmt.Fprintf(w, "round %d: converged, stopping\n", n)
			return nil
		}
		fmt.Fprintf(w, "round %d: not converged, extending the pipeline\n", n)
		if err := pipeline.AddStage(mdStage(n)); err != nil {
			return err
		}
		if err := pipeline.AddStage(analysisStage(n)); err != nil {
			return err
		}
		if n == 1 {
			// Suspend at this stage boundary while an (imagined) external
			// decision service deliberates; resume shortly after. Pause and
			// Resume are committed by the Synchronizer like any other
			// transition, so the event stream shows both.
			r := <-runCh
			runCh <- r
			if err := r.Pause(pipeline.UID); err != nil {
				return err
			}
			fmt.Fprintln(w, "round 1: pipeline paused pending external decision")
			go func() {
				// A pacing device, not a synchronisation: it stands in
				// for the decision service's latency and keeps the pause
				// visible. Resume is correct whenever it arrives.
				time.Sleep(30 * time.Millisecond)
				defer close(resumed)
				if resumeErr = r.Resume(pipeline.UID); resumeErr == nil {
					fmt.Fprintln(w, "external decision arrived: pipeline resumed")
				}
			}()
		}
		return nil
	}

	if err := pipeline.AddStages(mdStage(0), analysisStage(0)); err != nil {
		return err
	}
	if err := am.AddPipelines(pipeline); err != nil {
		return err
	}

	// Live observability: stage and pipeline transitions as they commit.
	sub := am.Subscribe(entk.EventFilter{
		Kinds: []entk.EventKind{entk.EventStage, entk.EventPipeline},
	})
	go func() {
		for ev := range sub.C() {
			fmt.Fprintf(w, "  event: %-8s %-12s %s -> %s\n", ev.Kind, ev.Name, ev.From, ev.To)
		}
	}()

	r, err := am.Start(context.Background())
	if err != nil {
		return err
	}
	runCh <- r
	if err := r.Wait(); err != nil {
		return err
	}
	if <-resumed; resumeErr != nil {
		return resumeErr
	}

	snap := r.Snapshot()
	fmt.Fprintf(w, "\npipeline %s after %d stages (%d MD rounds), %d/%d tasks done\n",
		pipeline.State(), pipeline.StageCount(), atomic.LoadInt32(&round),
		snap.TasksDone, snap.TasksTotal)
	rep := am.Report()
	fmt.Fprintf(w, "execution window: %.0f virtual s (sequential rounds of concurrent replicas)\n",
		rep.TaskExecution)
	if pipeline.State() != entk.PipelineDone {
		return fmt.Errorf("pipeline %s ended %s", pipeline.Name, pipeline.State())
	}
	return nil
}
