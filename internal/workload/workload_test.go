package workload

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/vclock"
)

func testEnv() *Env {
	return &Env{Clock: vclock.NewScaled(time.Microsecond), Compute: true}
}

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"sleep", "mdrun", "stress"} {
		if _, err := r.Lookup(name); err != nil {
			t.Fatalf("builtin %q missing: %v", name, err)
		}
	}
	if _, err := r.Lookup("specfem"); err == nil {
		t.Fatal("unregistered kernel resolved")
	}
	names := r.Names()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
}

func TestRegistryDuplicateRejected(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(SleepKernel{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestSleepKernelSleepsVirtualDuration(t *testing.T) {
	clock := vclock.NewManual()
	env := &Env{Clock: clock}
	done := make(chan Result, 1)
	go func() {
		res, _ := SleepKernel{}.Run(context.Background(), Spec{Duration: 100 * time.Second}, env)
		done <- res
	}()
	select {
	case <-done:
		t.Fatal("sleep returned before virtual time advanced")
	case <-time.After(20 * time.Millisecond):
	}
	clock.Advance(100 * time.Second)
	select {
	case res := <-done:
		if res.ExitCode != 0 {
			t.Fatalf("exit = %d", res.ExitCode)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sleep never returned")
	}
}

func TestSleepKernelCancel(t *testing.T) {
	cancel := make(chan struct{})
	env := &Env{Clock: vclock.NewManual(), Cancel: cancel}
	done := make(chan Result, 1)
	go func() {
		res, _ := SleepKernel{}.Run(context.Background(), Spec{Duration: time.Hour}, env)
		done <- res
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case res := <-done:
		if res.ExitCode == 0 {
			t.Fatal("cancelled sleep exited 0")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled sleep never returned")
	}
}

func TestMDRunProducesEnergy(t *testing.T) {
	res, err := MDRunKernel{}.Run(context.Background(),
		Spec{Arguments: []string{"-nsteps", "20"}, Seed: 7}, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d: %s", res.ExitCode, res.Output)
	}
	if res.Output == "" {
		t.Fatal("no output")
	}
}

func TestMDRunDeterministicForSeed(t *testing.T) {
	e1 := LJEnergy(32, 25, 99)
	e2 := LJEnergy(32, 25, 99)
	if e1 != e2 {
		t.Fatalf("same seed, different energies: %v vs %v", e1, e2)
	}
	e3 := LJEnergy(32, 25, 100)
	if e1 == e3 {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestMDRunEnergyConservation(t *testing.T) {
	// Velocity Verlet on a smooth potential must conserve energy to within
	// a small drift over a short trajectory.
	short := LJEnergy(32, 5, 3)
	long := LJEnergy(32, 200, 3)
	if math.IsNaN(short) || math.IsNaN(long) {
		t.Fatal("energy is NaN")
	}
	drift := math.Abs(long - short)
	scale := math.Max(1, math.Abs(short))
	if drift/scale > 0.05 {
		t.Fatalf("energy drift %.3f (short %.4f, long %.4f)", drift/scale, short, long)
	}
}

func TestStressKernelRuns(t *testing.T) {
	res, err := StressKernel{}.Run(context.Background(),
		Spec{Arguments: []string{"-iters", "10000"}}, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
}

func TestStressKernelRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := StressKernel{}.Run(ctx, Spec{Arguments: []string{"-iters", "100000000"}}, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode == 0 {
		t.Fatal("cancelled stress exited 0")
	}
}

func TestComputeOffSkipsArithmetic(t *testing.T) {
	env := &Env{Clock: vclock.NewScaled(time.Microsecond), Compute: false}
	start := time.Now()
	res, err := MDRunKernel{}.Run(context.Background(),
		Spec{Arguments: []string{"-nsteps", "1000000"}}, env) // would be slow if computed
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("compute=false still performed the MD integration")
	}
}
