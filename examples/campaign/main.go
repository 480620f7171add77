// Campaign: a multi-phase computational campaign built from the paper's
// extended PST description — "dependencies among groups of pipelines in
// terms of lists of sets of pipelines" (§II-B1) — combined with the SAGA
// data-management protocols (§II-D) and the external state database
// (§II-B4).
//
// The campaign has three phases:
//
//  1. Generation — four independent simulation pipelines, each pulling its
//     configuration from a remote archive over scp and pushing a large
//     trajectory to tape over Globus Online.
//  2. Aggregation — one pipeline that merges the four trajectories.
//  3. Analysis — two pipelines (statistics, visualization) over the merged
//     data, which can again run concurrently.
//
// Every state transition is mirrored to an external state database; the
// program prints the database's view of the campaign afterwards, the
// "postmortem analysis" of the paper's failure model.
//
//	go run ./examples/campaign
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

func simulationPipeline(id int) *entk.Pipeline {
	p := entk.NewPipeline(fmt.Sprintf("generation-%d", id))
	run := entk.NewStage("simulate")
	t := entk.NewTask(fmt.Sprintf("md-%d", id))
	t.Executable = "mdrun"
	t.Duration = 600 * time.Second
	t.CPUReqs = entk.CPUReqs{Processes: 4}
	t.InputStaging = []entk.StagingDirective{{
		Source:   fmt.Sprintf("archive:/configs/run-%d.tpr", id),
		Target:   "run.tpr",
		Action:   entk.StagingTransfer,
		Bytes:    25 << 20, // 25 MB binary input
		Protocol: "scp",
	}}
	t.OutputStaging = []entk.StagingDirective{{
		Source:   "traj.trr",
		Target:   fmt.Sprintf("tape:/campaign/traj-%d.trr", id),
		Action:   entk.StagingTransfer,
		Bytes:    1 << 30, // 1 GB trajectory: Globus wins at this size
		Protocol: "globus",
	}}
	if err := run.AddTask(t); err != nil {
		log.Fatal(err)
	}
	if err := p.AddStage(run); err != nil {
		log.Fatal(err)
	}
	return p
}

func singleTaskPipeline(name, executable string, d time.Duration, cores int) *entk.Pipeline {
	p := entk.NewPipeline(name)
	s := entk.NewStage(name)
	t := entk.NewTask(name)
	t.Executable = executable
	t.Duration = d
	t.CPUReqs = entk.CPUReqs{Processes: cores}
	if err := s.AddTask(t); err != nil {
		log.Fatal(err)
	}
	if err := p.AddStage(s); err != nil {
		log.Fatal(err)
	}
	return p
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the campaign and writes its report to w. It fails unless
// every pipeline ends DONE.
func run(w io.Writer) error {
	// Phase 1: four concurrent simulation pipelines.
	var generation []*entk.Pipeline
	for i := 0; i < 4; i++ {
		generation = append(generation, simulationPipeline(i))
	}
	// Phase 2: one aggregation pipeline.
	aggregation := []*entk.Pipeline{
		singleTaskPipeline("aggregate", "sleep", 120*time.Second, 8),
	}
	// Phase 3: two concurrent analysis pipelines.
	analysis := []*entk.Pipeline{
		singleTaskPipeline("statistics", "sleep", 90*time.Second, 4),
		singleTaskPipeline("visualization", "sleep", 60*time.Second, 2),
	}

	db := entk.NewStateDB()
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource: entk.Resource{
			Name:     "comet",
			Cores:    24,
			Walltime: 4 * time.Hour,
		},
		TimeScale:   time.Millisecond,
		TaskRetries: 2,
		StateStore:  db,
	})
	if err != nil {
		return err
	}
	// The list-of-sets description: generation, then aggregation, then
	// analysis. Pipelines inside each set run concurrently.
	if err := am.AddPipelineGroups(generation, aggregation, analysis); err != nil {
		return err
	}

	start := am.Clock().Now()
	if err := am.Run(context.Background()); err != nil {
		return err
	}
	makespan := am.Clock().Now().Sub(start)

	fmt.Fprintln(w, "campaign finished")
	fmt.Fprintf(w, "  virtual makespan: %.0f s ", makespan.Seconds())
	fmt.Fprintln(w, "(≈600 s generation + 120 s aggregation + 90 s analysis + overheads)")
	for _, group := range [][]*entk.Pipeline{generation, aggregation, analysis} {
		for _, p := range group {
			fmt.Fprintf(w, "  %-14s %s\n", p.Name, p.State())
		}
	}

	rep := am.Report()
	fmt.Fprintf(w, "data staging (scp + globus transfers): %.1f virtual seconds\n", rep.DataStaging)

	// Postmortem analysis from the external state database (§II-B4).
	fmt.Fprintf(w, "state database: %d commits across %d tasks, %d stages, %d pipelines\n",
		db.Commits(), len(db.UIDs("task")), len(db.UIDs("stage")), len(db.UIDs("pipeline")))
	states, err := db.LoadTaskStates()
	if err != nil {
		return err
	}
	done := 0
	for _, st := range states {
		if st == string(entk.TaskDone) {
			done++
		}
	}
	fmt.Fprintf(w, "  tasks recorded DONE: %d/%d\n", done, len(states))
	if n, want := am.Snapshot().Pipelines[string(entk.PipelineDone)], len(generation)+len(aggregation)+len(analysis); n != want {
		return fmt.Errorf("%d of %d pipelines ended DONE", n, want)
	}
	return nil
}
