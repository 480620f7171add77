// Heterogeneous execution example: the paper's future-work capability (i),
// "dynamic mapping of tasks onto heterogeneous resources", applied to the
// seismic use case's stated need: "we need to interleave simulation tasks
// with data-processing tasks, each requiring respectively leadership-scale
// systems and moderately sized clusters" (§III-A).
//
// One EnTK application runs across two pilots at once — a large one on
// Titan for the forward simulations, a small one on Comet for the data
// processing — with tasks pinned by Tags["resource"].
//
//	go run ./examples/heterogeneous
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/entk"
	"repro/internal/seismic"
	"repro/internal/workload"
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
		Resource: entk.Resource{ // leadership-scale pilot
			Name:     "titan",
			Cores:    4 * 6144, // 4 concurrent forward simulations
			Walltime: 2 * time.Hour,
		},
		ExtraResources: []entk.Resource{{ // cluster-scale pilot
			Name:     "comet",
			Cores:    48,
			Walltime: 12 * time.Hour,
		}},
		TimeScale:   500 * time.Microsecond,
		TaskRetries: 3,
		Kernels:     []workload.Kernel{seismic.Kernel{}},
	})
	if err != nil {
		return err
	}

	const events = 4
	pipe := entk.NewPipeline("seismic-iteration")

	// stage has one task per event of this shape, pinned to resource.
	stage := func(name, prefix, executable string, d time.Duration, cores int, resource string) (*entk.Stage, error) {
		s := entk.NewStage(name)
		var tasks []*entk.Task
		for e := 0; e < events; e++ {
			t := entk.NewTask(fmt.Sprintf("%s-eq%02d", prefix, e))
			t.Executable = executable
			t.Duration = d
			t.CPUReqs = entk.CPUReqs{Processes: cores}
			t.Tags = map[string]string{"resource": resource}
			tasks = append(tasks, t)
		}
		return s, s.AddTasks(tasks...)
	}
	forward, err := stage("forward-simulation", "fwd", "specfem", 180*time.Second, 6144, "titan")
	if err != nil {
		return err
	}
	process, err := stage("data-processing", "proc", "sleep", 45*time.Second, 12, "comet")
	if err != nil {
		return err
	}
	if err := pipe.AddStages(forward, process); err != nil {
		return err
	}

	if err := am.AddPipelines(pipe); err != nil {
		return err
	}
	if err := am.Run(context.Background()); err != nil {
		return err
	}

	fmt.Fprintf(w, "pipeline %s\n", pipe.State())
	for _, s := range pipe.Stages() {
		fmt.Fprintf(w, "  stage %-20s %s\n", s.Name, s.State())
		for _, t := range s.Tasks() {
			fmt.Fprintf(w, "    %-12s on %-6s  %s\n", t.Name, t.Tags["resource"], t.State())
		}
	}
	rep := am.Report()
	fmt.Fprintf(w, "\nexecution window: %.0f virtual s — simulations on Titan, processing on Comet,\n", rep.TaskExecution)
	fmt.Fprintln(w, "one application, no manual hand-off between machines.")
	if pipe.State() != entk.PipelineDone {
		return fmt.Errorf("pipeline %s ended %s", pipe.Name, pipe.State())
	}
	return nil
}
