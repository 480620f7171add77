// Quickstart: the smallest complete EnTK application — one pipeline with a
// simulation stage (16 concurrent tasks) followed by an analysis stage,
// executed on a simulated XSEDE SuperMIC pilot.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/entk"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the application and writes its report to w. It fails unless
// the pipeline ends DONE.
func run(w io.Writer) error {
	// Describe the application with the PST model.
	pipeline := entk.NewPipeline("quickstart")

	simulation := entk.NewStage("simulation")
	for i := 0; i < 16; i++ {
		t := entk.NewTask(fmt.Sprintf("md-%02d", i))
		t.Executable = "mdrun"
		t.Arguments = []string{"-nsteps", "50"}
		t.Duration = 300 * time.Second // nominal runtime on the CI
		t.CPUReqs = entk.CPUReqs{Processes: 1}
		if err := simulation.AddTask(t); err != nil {
			return err
		}
	}

	analysis := entk.NewStage("analysis")
	agg := entk.NewTask("aggregate")
	agg.Executable = "sleep"
	agg.Duration = 30 * time.Second
	if err := analysis.AddTask(agg); err != nil {
		return err
	}
	if err := pipeline.AddStages(simulation, analysis); err != nil {
		return err
	}

	// Acquire resources and execute. One virtual second costs 1 ms of wall
	// time, so the 330 s workflow completes in well under a second.
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource: entk.Resource{
			Name:     "supermic",
			Cores:    16,
			Walltime: time.Hour,
		},
		TimeScale:   time.Millisecond,
		TaskRetries: 2,
		Compute:     true, // run the real (small) MD kernel inside each task
	})
	if err != nil {
		return err
	}
	if err := am.AddPipelines(pipeline); err != nil {
		return err
	}
	if err := am.Run(context.Background()); err != nil {
		return err
	}

	fmt.Fprintf(w, "pipeline state: %s\n", pipeline.State())
	for _, s := range pipeline.Stages() {
		done := 0
		for _, t := range s.Tasks() {
			if t.State() == entk.TaskDone {
				done++
			} else {
				fmt.Fprintf(w, "  task %s %s: %s\n", t.Name, t.State(), t.ExecError())
			}
		}
		fmt.Fprintf(w, "  stage %-12s %s (%d/%d tasks done)\n",
			s.Name, s.State(), done, s.TaskCount())
	}
	rep := am.Report()
	fmt.Fprintf(w, "task execution window: %.1f virtual seconds\n", rep.TaskExecution)
	fmt.Fprintf(w, "EnTK overheads: setup %.2fs, management %.2fs, tear-down %.2fs\n",
		rep.EnTKSetup, rep.EnTKManagement, rep.EnTKTeardown)
	if pipeline.State() != entk.PipelineDone {
		return fmt.Errorf("pipeline %s ended %s", pipeline.Name, pipeline.State())
	}
	return nil
}
