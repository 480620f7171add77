// Package workload implements the task executables the paper's experiments
// run. Sleep and GROMACS mdrun "enable control of the duration of task
// execution and to compare EnTK overheads across task executables" (§IV);
// Specfem and CAnalogs kernels are contributed by the use-case packages
// through the same registry, which keeps EnTK agnostic of what a task runs.
package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Spec is what a kernel receives about its task.
type Spec struct {
	// Environment carries the task's environment variables to the kernel.
	Environment map[string]string
	UID         string
	Arguments   []string
	// Duration is the nominal virtual runtime.
	Duration time.Duration
	Cores    int
	Seed     int64
}

// Env gives kernels access to the simulated environment.
type Env struct {
	// Clock provides virtual time; kernels sleep their nominal duration on
	// it.
	Clock vclock.Clock
	// Compute enables the kernel's real computation (bounded, laptop
	// scale). Off, kernels only model time — the right setting for
	// large-scale experiments.
	Compute bool
	// Cancel aborts a sleeping kernel when closed.
	Cancel <-chan struct{}
}

// Result is a kernel's outcome.
type Result struct {
	ExitCode int
	Output   string
}

// Kernel is one executable implementation.
type Kernel interface {
	// Name is the executable name tasks reference.
	Name() string
	// Run executes the kernel.
	Run(ctx context.Context, spec Spec, env *Env) (Result, error)
}

// Registry maps executable names to kernels. The zero value is unusable;
// use NewRegistry, which installs the built-ins.
type Registry struct {
	mu      sync.RWMutex
	kernels map[string]Kernel
}

// NewRegistry returns a registry with the built-in kernels (sleep, mdrun,
// stress) installed.
func NewRegistry() *Registry {
	r := &Registry{kernels: make(map[string]Kernel)}
	r.MustRegister(SleepKernel{})
	r.MustRegister(MDRunKernel{})
	r.MustRegister(StressKernel{})
	return r
}

// Register adds a kernel; duplicate names fail.
func (r *Registry) Register(k Kernel) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.kernels[k.Name()]; dup {
		return fmt.Errorf("workload: kernel %q already registered", k.Name())
	}
	r.kernels[k.Name()] = k
	return nil
}

// MustRegister panics on duplicate registration; for package setup.
func (r *Registry) MustRegister(k Kernel) {
	if err := r.Register(k); err != nil {
		panic(err)
	}
}

// Lookup resolves an executable name.
func (r *Registry) Lookup(name string) (Kernel, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.kernels[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown executable %q", name)
	}
	return k, nil
}

// Names lists registered kernels, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.kernels))
	for n := range r.kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sleepFor waits the spec's nominal duration on the virtual clock,
// returning false if cancelled first.
func sleepFor(spec Spec, env *Env) bool {
	if spec.Duration <= 0 {
		return true
	}
	if env.Cancel == nil {
		env.Clock.Sleep(spec.Duration)
		return true
	}
	select {
	case <-env.Clock.After(spec.Duration):
		return true
	case <-env.Cancel:
		return false
	}
}

// SleepKernel is /bin/sleep: it occupies its cores for the nominal duration
// and does nothing else. The paper uses it to isolate overheads from
// computation.
type SleepKernel struct{}

// Name implements Kernel.
func (SleepKernel) Name() string { return "sleep" }

// Run implements Kernel.
func (SleepKernel) Run(ctx context.Context, spec Spec, env *Env) (Result, error) {
	if !sleepFor(spec, env) {
		return Result{ExitCode: 143, Output: "terminated"}, nil
	}
	return Result{}, nil // /bin/sleep prints nothing
}

// MDRunKernel stands in for GROMACS mdrun, the ensemble-MD executable of the
// scaling experiments. Besides occupying its cores for the nominal duration,
// it can integrate a small Lennard-Jones system with velocity Verlet so the
// executable performs real molecular-dynamics arithmetic (energies are
// reported in reduced units).
type MDRunKernel struct{}

// Name implements Kernel.
func (MDRunKernel) Name() string { return "mdrun" }

// mdrunParticles is the LJ system size; intentionally small — the kernel
// must be cheap enough to run thousands of times inside experiments.
const mdrunParticles = 32

// Run implements Kernel.
func (MDRunKernel) Run(ctx context.Context, spec Spec, env *Env) (Result, error) {
	steps := 50
	for i, a := range spec.Arguments {
		if a == "-nsteps" && i+1 < len(spec.Arguments) {
			if v, err := strconv.Atoi(spec.Arguments[i+1]); err == nil && v >= 0 {
				steps = v
			}
		}
	}
	var energy float64
	if env.Compute {
		energy = runLJ(mdrunParticles, steps, spec.Seed)
		if math.IsNaN(energy) || math.IsInf(energy, 0) {
			return Result{ExitCode: 1, Output: "mdrun: integration diverged"}, nil
		}
	}
	if !sleepFor(spec, env) {
		return Result{ExitCode: 143, Output: "terminated"}, nil
	}
	return Result{ExitCode: 0, Output: fmt.Sprintf("mdrun: %d steps, E=%.4f", steps, energy)}, nil
}

// runLJ integrates an N-particle Lennard-Jones fluid in a cubic periodic box
// and returns the final total energy (reduced units).
func runLJ(n, steps int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	const (
		box = 6.0
		dt  = 0.002
	)
	pos := make([][3]float64, n)
	vel := make([][3]float64, n)
	frc := make([][3]float64, n)
	// Lattice start to avoid overlaps, small random velocities.
	side := int(math.Ceil(math.Cbrt(float64(n))))
	spacing := box / float64(side)
	for i := 0; i < n; i++ {
		pos[i] = [3]float64{
			(float64(i%side) + 0.5) * spacing,
			(float64((i/side)%side) + 0.5) * spacing,
			(float64(i/(side*side)) + 0.5) * spacing,
		}
		for d := 0; d < 3; d++ {
			vel[i][d] = (rng.Float64() - 0.5) * 0.1
		}
	}
	forces := func() float64 {
		var pot float64
		for i := range frc {
			frc[i] = [3]float64{}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var dr [3]float64
				var r2 float64
				for d := 0; d < 3; d++ {
					x := pos[i][d] - pos[j][d]
					x -= box * math.Round(x/box) // minimum image
					dr[d] = x
					r2 += x * x
				}
				if r2 < 1e-12 {
					continue
				}
				inv2 := 1.0 / r2
				inv6 := inv2 * inv2 * inv2
				inv12 := inv6 * inv6
				pot += 4 * (inv12 - inv6)
				f := (48*inv12 - 24*inv6) * inv2
				for d := 0; d < 3; d++ {
					frc[i][d] += f * dr[d]
					frc[j][d] -= f * dr[d]
				}
			}
		}
		return pot
	}
	pot := forces()
	for s := 0; s < steps; s++ {
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				vel[i][d] += 0.5 * dt * frc[i][d]
				pos[i][d] += dt * vel[i][d]
				pos[i][d] = math.Mod(math.Mod(pos[i][d], box)+box, box)
			}
		}
		pot = forces()
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				vel[i][d] += 0.5 * dt * frc[i][d]
			}
		}
	}
	var kin float64
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			kin += 0.5 * vel[i][d] * vel[i][d]
		}
	}
	return kin + pot
}

// LJEnergy exposes the MD integrator for tests (energy conservation checks).
func LJEnergy(n, steps int, seed int64) float64 { return runLJ(n, steps, seed) }

// StressKernel burns real CPU for a caller-controlled number of iterations
// ("-iters N"); used by throughput benchmarks where tasks must cost real
// work rather than virtual time.
type StressKernel struct{}

// Name implements Kernel.
func (StressKernel) Name() string { return "stress" }

// Run implements Kernel.
func (StressKernel) Run(ctx context.Context, spec Spec, env *Env) (Result, error) {
	iters := 1000
	for i, a := range spec.Arguments {
		if a == "-iters" && i+1 < len(spec.Arguments) {
			if v, err := strconv.Atoi(spec.Arguments[i+1]); err == nil && v >= 0 {
				iters = v
			}
		}
	}
	acc := 0.0
	for i := 0; i < iters; i++ {
		acc += math.Sqrt(float64(i + 1))
		if i%4096 == 0 {
			select {
			case <-ctx.Done():
				return Result{ExitCode: 130, Output: "interrupted"}, nil
			default:
			}
		}
	}
	if !sleepFor(spec, env) {
		return Result{ExitCode: 143, Output: "terminated"}, nil
	}
	return Result{ExitCode: 0, Output: fmt.Sprintf("stress: %d iters, acc=%.1f", iters, acc)}, nil
}
