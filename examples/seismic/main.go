// Seismic inversion example: the paper's first use case (§III-A).
//
// Part 1 executes the production-shaped forward-simulation ensemble on a
// simulated Titan: 8 earthquakes, each a 384-node Specfem task, run at a
// concurrency of 4 with automatic resubmission of failed tasks.
//
// Part 2 runs a real (laptop-scale) adjoint tomography loop with the 2-D
// acoustic solver: forward simulations against a hidden true model, misfit
// evaluation, adjoint kernels and model updates — showing the misfit
// decrease that the production workflow achieves on Titan.
//
//	go run ./examples/seismic
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

// run executes both parts and writes their reports to w. It fails unless
// every pipeline of the ensemble ends DONE.
func run(w io.Writer) error {
	if err := runEnsembleOnTitan(w); err != nil {
		return err
	}
	return runMiniInversion(w)
}

func runEnsembleOnTitan(w io.Writer) error {
	fmt.Fprintln(w, "=== Part 1: forward-simulation ensemble on (simulated) Titan ===")
	params := seismic.ProductionForwardParams()
	const events = 8
	const concurrency = 4

	am, err := entk.NewAppManager(entk.AppConfig{
		Resource: entk.Resource{
			Name:     "titan",
			Cores:    concurrency * params.Cores, // 4 x 384 nodes
			Walltime: 2 * time.Hour,
		},
		TimeScale:   500 * time.Microsecond,
		TaskRetries: 10,
		Seed:        42,
		Kernels:     []workload.Kernel{seismic.Kernel{}},
	})
	if err != nil {
		return err
	}
	pipes := seismic.NewForwardEnsemble(events, params)
	if err := am.AddPipelines(pipes...); err != nil {
		return err
	}
	if err := am.Run(context.Background()); err != nil {
		return err
	}
	attempts := 0
	for _, p := range pipes {
		if p.State() != entk.PipelineDone {
			return fmt.Errorf("pipeline %s ended %s", p.Name, p.State())
		}
		for _, s := range p.Stages() {
			for _, t := range s.Tasks() {
				attempts += t.Attempts()
			}
		}
	}
	rep := am.Report()
	fmt.Fprintf(w, "%d earthquakes simulated at concurrency %d: makespan %.0f virtual s, %d attempts\n",
		events, concurrency, rep.TaskExecution, attempts)
	fs := am.Filesystem()
	fmt.Fprintf(w, "input staging on %s: %d MB in %d staging calls\n\n",
		fs.Spec().Name, fs.Stats().BytesStaged>>20, fs.Stats().StageCalls)
	return nil
}

func runMiniInversion(w io.Writer) error {
	fmt.Fprintln(w, "=== Part 2: adjoint tomography with the 2-D acoustic solver ===")
	trueModel := seismic.NewModel(48, 48, 10, 1500)
	trueModel.AddGaussianAnomaly(24, 24, 6, 180) // the structure to image
	current := seismic.NewModel(48, 48, 10, 1500)

	events := []seismic.Source{
		{IX: 12, IZ: 6, Freq: 10},
		{IX: 24, IZ: 6, Freq: 10},
		{IX: 36, IZ: 6, Freq: 10},
	}
	receivers := []seismic.Receiver{
		{IX: 6, IZ: 4}, {IX: 14, IZ: 4}, {IX: 22, IZ: 4},
		{IX: 30, IZ: 4}, {IX: 38, IZ: 4}, {IX: 44, IZ: 4},
	}
	cfg := seismic.SimConfig{NT: 180, DT: 0.004, DampWidth: 6, SnapshotEvery: 3}

	model := current
	for iter := 1; iter <= 4; iter++ {
		next, misfit, err := seismic.InvertStep(model, trueModel, events, receivers, cfg, 0.03)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "iteration %d: waveform misfit %.3e\n", iter, misfit)
		model = next
	}
	fmt.Fprintln(w, "misfit decreases as the model converges toward the true anomaly")
	return nil
}
