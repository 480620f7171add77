package entk

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/fsim"
	"repro/internal/workload"
)

func TestCIsCatalogued(t *testing.T) {
	cis := CIs()
	if len(cis) != 4 {
		t.Fatalf("CIs = %v", cis)
	}
}

func TestNewAppManagerValidation(t *testing.T) {
	if _, err := NewAppManager(AppConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewAppManager(AppConfig{Resource: Resource{Name: "frontier", Cores: 1, Walltime: time.Hour}}); err == nil {
		t.Fatal("unknown CI accepted")
	}
	if _, err := NewAppManager(AppConfig{
		Resource: Resource{Name: "comet", Cores: 8, Walltime: time.Hour},
		HostName: "laptop-of-unknown-provenance",
	}); err == nil {
		t.Fatal("unknown host model accepted")
	}
}

func smallApp(tasks int, dur time.Duration) *Pipeline {
	p := NewPipeline("app")
	s := NewStage("stage")
	for i := 0; i < tasks; i++ {
		task := NewTask(fmt.Sprintf("t%02d", i))
		task.Executable = "sleep"
		task.Duration = dur
		s.AddTask(task) //nolint:errcheck
	}
	p.AddStage(s) //nolint:errcheck
	return p
}

func TestEndToEndRun(t *testing.T) {
	am, err := NewAppManager(AppConfig{
		Resource:    Resource{Name: "supermic", Cores: 8, Walltime: time.Hour},
		TimeScale:   50 * time.Microsecond,
		TaskRetries: 1,
		HostName:    "null",
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := smallApp(8, 20*time.Second)
	if err := am.AddPipelines(pipe); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if pipe.State() != PipelineDone {
		t.Fatalf("pipeline state = %s", pipe.State())
	}
	rep := am.Report()
	if rep.TaskExecution <= 0 {
		t.Fatalf("no execution window: %+v", rep)
	}
	if rep.RTSOverhead <= 0 {
		t.Fatalf("no RTS overhead recorded: %+v", rep)
	}
}

// TestMachineKnobsReachTheCI holds the two knobs of the simulated CI to
// their effect: FSSpec replaces the filesystem model, and QueueWait holds the
// pilot in the batch queue, so the run takes at least that long in virtual
// time. The pilot asks for supermic's 72 h cap, 259 ms of wall time at this
// scale, so a busy machine cannot run it out before the two tasks finish.
func TestMachineKnobsReachTheCI(t *testing.T) {
	fs := fsim.XSEDEShared()
	fs.Name = "scratch-nvme"
	const wait = 30 * time.Minute
	am, err := NewAppManager(AppConfig{
		Resource:  Resource{Name: "supermic", Cores: 8, Walltime: 72 * time.Hour},
		TimeScale: time.Microsecond,
		HostName:  "null",
		FSSpec:    &fs,
		QueueWait: wait,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := am.Filesystem().Spec().Name; got != fs.Name {
		t.Fatalf("filesystem = %q, want the FSSpec override %q", got, fs.Name)
	}
	if err := am.AddPipelines(smallApp(2, time.Second)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := am.Clock().Now()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if took := am.Clock().Now().Sub(start); took < wait {
		t.Fatalf("run took %v of virtual time, less than the %v queue wait", took, wait)
	}
}

// TestBatchSizeKnob runs the same application at several batch sizes,
// including 1 (the per-message path) — the knob must change only broker
// traffic shape, never the outcome.
func TestBatchSizeKnob(t *testing.T) {
	for _, batch := range []int{1, 3, 64} {
		am, err := NewAppManager(AppConfig{
			Resource:  Resource{Name: "supermic", Cores: 8, Walltime: time.Hour},
			TimeScale: 50 * time.Microsecond,
			HostName:  "null",
			Tuning:    Tuning{BatchSize: batch},
		})
		if err != nil {
			t.Fatal(err)
		}
		pipe := smallApp(10, 5*time.Second)
		if err := am.AddPipelines(pipe); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := am.Run(ctx); err != nil {
			cancel()
			t.Fatalf("batch=%d: %v", batch, err)
		}
		cancel()
		if pipe.State() != PipelineDone {
			t.Fatalf("batch=%d: pipeline state = %s", batch, pipe.State())
		}
		for _, task := range pipe.Stages()[0].Tasks() {
			if task.State() != TaskDone {
				t.Fatalf("batch=%d: task %s state = %s", batch, task.UID, task.State())
			}
		}
	}
}

func TestCustomKernelRegistration(t *testing.T) {
	am, err := NewAppManager(AppConfig{
		Resource:  Resource{Name: "comet", Cores: 4, Walltime: time.Hour},
		TimeScale: 50 * time.Microsecond,
		HostName:  "null",
		Kernels:   []workload.Kernel{testKernel{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline("custom")
	s := NewStage("s")
	task := NewTask("t")
	task.Executable = "test-kernel"
	task.Duration = time.Second
	s.AddTask(task)       //nolint:errcheck
	pipe.AddStage(s)      //nolint:errcheck
	am.AddPipelines(pipe) //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if task.State() != TaskDone {
		t.Fatalf("task state = %s", task.State())
	}
}

type testKernel struct{}

func (testKernel) Name() string { return "test-kernel" }
func (testKernel) Run(ctx context.Context, spec workload.Spec, env *workload.Env) (workload.Result, error) {
	env.Clock.Sleep(spec.Duration)
	return workload.Result{ExitCode: 0, Output: "ok"}, nil
}

func TestDuplicateKernelRejected(t *testing.T) {
	if _, err := NewAppManager(AppConfig{
		Resource: Resource{Name: "comet", Cores: 4, Walltime: time.Hour},
		Kernels:  []workload.Kernel{workload.SleepKernel{}},
	}); err == nil {
		t.Fatal("duplicate 'sleep' kernel accepted")
	}
}

func TestHostDefaultsFollowPaper(t *testing.T) {
	// Titan runs are driven from the ORNL login node by default; XSEDE runs
	// from the TACC VM. Observable through the management overhead.
	runOn := func(ci string) float64 {
		am, err := NewAppManager(AppConfig{
			Resource:  Resource{Name: ci, Cores: 4, Walltime: time.Hour},
			TimeScale: 20 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		am.AddPipelines(smallApp(4, 5*time.Second)) //nolint:errcheck
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := am.Run(ctx); err != nil {
			t.Fatal(err)
		}
		return am.Report().EnTKManagement
	}
	if titan, supermic := runOn("titan"), runOn("supermic"); titan >= supermic {
		t.Fatalf("titan mgmt %v not below supermic %v (host defaults wrong)", titan, supermic)
	}
}

func TestHeterogeneousResources(t *testing.T) {
	am, err := NewAppManager(AppConfig{
		Resource:       Resource{Name: "titan", Cores: 1024, Walltime: time.Hour},
		ExtraResources: []Resource{{Name: "comet", Cores: 24, Walltime: time.Hour}},
		TimeScale:      20 * time.Microsecond,
		HostName:       "null",
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline("hetero")
	sim := NewStage("sim")
	big := NewTask("big")
	big.Executable = "sleep"
	big.Duration = 10 * time.Second
	big.CPUReqs = CPUReqs{Processes: 512}
	big.Tags = map[string]string{"resource": "titan"}
	sim.AddTask(big)   //nolint:errcheck
	pipe.AddStage(sim) //nolint:errcheck
	proc := NewStage("proc")
	small := NewTask("small")
	small.Executable = "sleep"
	small.Duration = 5 * time.Second
	small.Tags = map[string]string{"resource": "comet"}
	proc.AddTask(small)   //nolint:errcheck
	pipe.AddStage(proc)   //nolint:errcheck
	am.AddPipelines(pipe) //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if big.State() != TaskDone || small.State() != TaskDone {
		t.Fatalf("states: big=%s small=%s", big.State(), small.State())
	}
}

func TestHeterogeneousUnknownExtraCI(t *testing.T) {
	if _, err := NewAppManager(AppConfig{
		Resource:       Resource{Name: "titan", Cores: 16, Walltime: time.Hour},
		ExtraResources: []Resource{{Name: "perlmutter", Cores: 16, Walltime: time.Hour}},
	}); err == nil {
		t.Fatal("unknown extra CI accepted")
	}
}

// TestNewAppManagerLeavesConfigAlone: a titan extra resource left at 0 GPUs
// still reads 0 in the caller's config afterwards, while the router member
// built from it gets titan's one GPU per allocated node.
func TestNewAppManagerLeavesConfigAlone(t *testing.T) {
	extra := []Resource{{Name: "titan", Cores: 32, Walltime: 2 * time.Hour}}
	am, err := NewAppManager(AppConfig{
		Resource:       Resource{Name: "comet", Cores: 24, Walltime: 2 * time.Hour},
		ExtraResources: extra,
		TimeScale:      20 * time.Microsecond,
		HostName:       "null",
	})
	if err != nil {
		t.Fatal(err)
	}
	if extra[0].GPUs != 0 {
		t.Errorf("NewAppManager wrote GPUs = %d into the caller's ExtraResources", extra[0].GPUs)
	}
	pipe := NewPipeline("gpus")
	s := NewStage("s")
	task := NewTask("t")
	task.Executable = "sleep"
	task.Duration = 10 * time.Minute
	s.AddTask(task)       //nolint:errcheck
	pipe.AddStage(s)      //nolint:errcheck
	am.AddPipelines(pipe) //nolint:errcheck
	run, err := am.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// comet brings no GPUs and 32 titan cores are two nodes of one GPU each.
	if got := run.Snapshot().Utilization.GPUsTotal; got != 2 {
		t.Errorf("router members hold %d GPUs, want 2", got)
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFailingTasksFailPipeline(t *testing.T) {
	am, err := NewAppManager(AppConfig{
		Resource:  Resource{Name: "comet", Cores: 4, Walltime: time.Hour},
		TimeScale: 50 * time.Microsecond,
		HostName:  "null",
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline("doomed")
	s := NewStage("s")
	task := NewTask("t")
	task.Executable = "no-such-binary"
	task.Duration = time.Second
	task.MaxRetries = 0
	s.AddTask(task)       //nolint:errcheck
	pipe.AddStage(s)      //nolint:errcheck
	am.AddPipelines(pipe) //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := am.Run(ctx); err == nil {
		t.Fatal("run with unknown executable returned nil")
	}
	if task.State() != TaskFailed {
		t.Fatalf("task state = %s", task.State())
	}
	if task.ExitCode() != 127 {
		t.Fatalf("exit code = %d, want 127", task.ExitCode())
	}
}

func TestCampaignGroupsTransfersAndStateDB(t *testing.T) {
	// End-to-end coverage of the three §II extensions through the public
	// API: pipeline groups, transfer staging protocols and the external
	// state database.
	mk := func(name string, d time.Duration) *Pipeline {
		p := NewPipeline(name)
		s := NewStage("s")
		task := NewTask(name)
		task.Executable = "sleep"
		task.Duration = d
		task.OutputStaging = []StagingDirective{{
			Source: "out", Target: "archive:/out",
			Action: StagingTransfer, Bytes: 10 << 20, Protocol: "scp",
		}}
		if err := s.AddTask(task); err != nil {
			t.Fatal(err)
		}
		if err := p.AddStage(s); err != nil {
			t.Fatal(err)
		}
		return p
	}
	sim := mk("sim", 50*time.Second)
	post := mk("post", 20*time.Second)

	db := NewStateDB()
	am, err := NewAppManager(AppConfig{
		Resource:   Resource{Name: "comet", Cores: 8, Walltime: 24 * time.Hour},
		TimeScale:  20 * time.Microsecond,
		StateStore: db,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelineGroups([]*Pipeline{sim}, []*Pipeline{post}); err != nil {
		t.Fatal(err)
	}
	if err := am.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pipeline{sim, post} {
		if p.State() != PipelineDone {
			t.Fatalf("pipeline %s state = %s", p.Name, p.State())
		}
	}
	if got := len(db.UIDs("task")); got != 2 {
		t.Fatalf("state DB recorded %d tasks, want 2", got)
	}
	if rep := am.Report(); rep.DataStaging <= 0 {
		t.Fatalf("data staging = %v, want > 0 (scp transfers)", rep.DataStaging)
	}
}

func TestTitanPilotGetsGPUsByDefault(t *testing.T) {
	// A Titan pilot brings 1 GPU per allocated node, so a GPU task runs
	// without an explicit AppConfig GPU request.
	p := NewPipeline("gpu")
	s := NewStage("fwd")
	task := NewTask("specfem-like")
	task.Executable = "sleep"
	task.Duration = 30 * time.Second
	task.CPUReqs = CPUReqs{Processes: 16}
	task.GPUReqs = GPUReqs{Processes: 2}
	if err := s.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if err := p.AddStage(s); err != nil {
		t.Fatal(err)
	}
	am, err := NewAppManager(AppConfig{
		Resource:  Resource{Name: "titan", Cores: 32, Walltime: 2 * time.Hour},
		TimeScale: 20 * time.Microsecond,
		HostName:  "null",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(p); err != nil {
		t.Fatal(err)
	}
	if err := am.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if task.State() != TaskDone {
		t.Fatalf("GPU task state = %s (exit %d: %s)", task.State(), task.ExitCode(), task.ExecError())
	}
}

type envProbeKernel struct{ got chan string }

func (envProbeKernel) Name() string { return "env-probe" }
func (k envProbeKernel) Run(ctx context.Context, spec workload.Spec, env *workload.Env) (workload.Result, error) {
	k.got <- spec.Environment["OMP_NUM_THREADS"]
	return workload.Result{ExitCode: 0}, nil
}

func TestTaskEnvironmentReachesKernel(t *testing.T) {
	probe := envProbeKernel{got: make(chan string, 1)}
	am, err := NewAppManager(AppConfig{
		Resource:  Resource{Name: "comet", Cores: 4, Walltime: time.Hour},
		TimeScale: 50 * time.Microsecond,
		HostName:  "null",
		Kernels:   []workload.Kernel{probe},
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline("env")
	s := NewStage("s")
	task := NewTask("t")
	task.Executable = "env-probe"
	task.Environment = map[string]string{"OMP_NUM_THREADS": "16"}
	s.AddTask(task)       //nolint:errcheck
	pipe.AddStage(s)      //nolint:errcheck
	am.AddPipelines(pipe) //nolint:errcheck
	if err := am.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-probe.got:
		if v != "16" {
			t.Fatalf("kernel saw OMP_NUM_THREADS=%q, want 16", v)
		}
	default:
		t.Fatal("kernel never observed the environment")
	}
}
