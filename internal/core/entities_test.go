package core

import (
	"context"
	"strings"
	"testing"
	"time"
)

func validTask(name string) *Task {
	t := NewTask(name)
	t.Executable = "sleep"
	t.Duration = time.Second
	return t
}

func TestTaskValidate(t *testing.T) {
	good := validTask("ok")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	noExec := NewTask("no-exec")
	if err := noExec.Validate(); err == nil {
		t.Fatal("task without executable accepted")
	}
	localOnly := NewTask("local")
	localOnly.LocalFunc = func() error { return nil }
	if err := localOnly.Validate(); err != nil {
		t.Fatalf("LocalFunc-only task rejected: %v", err)
	}
	negDur := validTask("neg")
	negDur.Duration = -time.Second
	if err := negDur.Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
	badStaging := validTask("stage")
	badStaging.InputStaging = []StagingDirective{{Source: "a", Target: "b", Action: "teleport"}}
	if err := badStaging.Validate(); err == nil {
		t.Fatal("invalid staging action accepted")
	}
	negIO := validTask("io")
	negIO.IOLoad = -1
	if err := negIO.Validate(); err == nil {
		t.Fatal("negative IO load accepted")
	}
}

func TestCPUReqsCores(t *testing.T) {
	cases := []struct {
		reqs CPUReqs
		want int
	}{
		{CPUReqs{}, 1},
		{CPUReqs{Processes: 4}, 4},
		{CPUReqs{Processes: 4, ThreadsPerProcess: 2}, 8},
		{CPUReqs{ThreadsPerProcess: 16}, 16},
	}
	for _, c := range cases {
		if got := c.reqs.Cores(); got != c.want {
			t.Fatalf("Cores(%+v) = %d, want %d", c.reqs, got, c.want)
		}
	}
}

func TestStageAddTaskAfterStartRejected(t *testing.T) {
	s := NewStage("s")
	if err := s.AddTask(validTask("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.advance(StageScheduling); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(validTask("b")); err == nil {
		t.Fatal("added task to scheduling stage")
	}
	if s.TaskCount() != 1 {
		t.Fatalf("task count = %d", s.TaskCount())
	}
}

func TestStageValidateEmpty(t *testing.T) {
	s := NewStage("empty")
	if err := s.Validate(); err == nil {
		t.Fatal("empty stage accepted")
	}
}

func TestStageTasksTerminal(t *testing.T) {
	s := NewStage("s")
	t1, t2 := validTask("a"), validTask("b")
	s.AddTasks(t1, t2)
	all, failed, canceled := s.tasksTerminal()
	if all {
		t.Fatal("fresh tasks reported terminal")
	}
	t1.forceState(TaskDone)
	all, _, _ = s.tasksTerminal()
	if all {
		t.Fatal("one pending task but stage reported terminal")
	}
	t2.forceState(TaskFailed)
	all, failed, canceled = s.tasksTerminal()
	if !all || !failed || canceled {
		t.Fatalf("terminal=%v failed=%v canceled=%v", all, failed, canceled)
	}
}

func TestPipelineParentWiring(t *testing.T) {
	p := NewPipeline("p")
	s := NewStage("s")
	task := validTask("t")
	s.AddTask(task)
	if err := p.AddStage(s); err != nil {
		t.Fatal(err)
	}
	if s.Parent() != p.UID {
		t.Fatalf("stage parent = %q", s.Parent())
	}
	pu, su := task.Parent()
	if pu != p.UID || su != s.UID {
		t.Fatalf("task parents = %q, %q", pu, su)
	}
}

func TestPipelineCursor(t *testing.T) {
	p := NewPipeline("p")
	s1, s2 := NewStage("s1"), NewStage("s2")
	s1.AddTask(validTask("a"))
	s2.AddTask(validTask("b"))
	p.AddStages(s1, s2)
	if got := p.currentStage(); got != s1 {
		t.Fatal("cursor not at first stage")
	}
	if got := p.advanceCursor(); got != s2 {
		t.Fatal("cursor did not advance to second stage")
	}
	if got := p.advanceCursor(); got != nil {
		t.Fatal("cursor advanced past last stage")
	}
	if p.CurrentStageIndex() != 2 {
		t.Fatalf("index = %d", p.CurrentStageIndex())
	}
}

func TestPipelineAddStageWhileRunning(t *testing.T) {
	p := NewPipeline("p")
	s1 := NewStage("s1")
	s1.AddTask(validTask("a"))
	p.AddStage(s1)
	p.forceState(PipelineScheduling)
	s2 := NewStage("late")
	s2.AddTask(validTask("b"))
	if err := p.AddStage(s2); err != nil {
		t.Fatalf("adding stage to running pipeline rejected: %v", err)
	}
	p.forceState(PipelineDone)
	s3 := NewStage("too-late")
	s3.AddTask(validTask("c"))
	if err := p.AddStage(s3); err == nil {
		t.Fatal("added stage to terminal pipeline")
	}
}

func TestPipelineValidate(t *testing.T) {
	p := NewPipeline("p")
	if err := p.Validate(); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	s := NewStage("s")
	s.AddTask(validTask("t"))
	p.AddStage(s)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TaskCount() != 1 {
		t.Fatalf("task count = %d", p.TaskCount())
	}
}

func TestDescribeTaskTranslation(t *testing.T) {
	task := validTask("t")
	task.Arguments = []string{"-n", "100"}
	task.CPUReqs = CPUReqs{Processes: 2, ThreadsPerProcess: 3}
	task.GPUReqs = GPUReqs{Processes: 1}
	task.PreExec = []string{"module load gromacs"}
	task.IOLoad = 0.5
	task.InputStaging = []StagingDirective{{Source: "in", Target: "x", Action: StagingCopy, Bytes: 100}}
	task.forceState(TaskScheduling)

	d := describeTask(task)
	if d.UID != task.UID || d.Executable != "sleep" || d.Cores != 6 || d.GPUs != 1 {
		t.Fatalf("description: %+v", d)
	}
	if d.PreExec != 1 || len(d.Input) != 1 || d.IOLoad != 0.5 {
		t.Fatalf("description details: %+v", d)
	}
	// Mutating the description must not affect the task.
	d.Arguments[0] = "mutated"
	if task.Arguments[0] != "-n" {
		t.Fatal("describeTask aliases task arguments")
	}
}

// TestRegistrationRejectsDuplicateUIDs drives registerEntities' duplicate
// checks through Start: an application that names a pipeline, a stage or a
// task twice — a task even within one stage, or across two pipelines — does
// not start, and the error names the UID; a clean one registers every task.
func TestRegistrationRejectsDuplicateUIDs(t *testing.T) {
	for _, c := range []struct {
		name  string
		apply func(pipes []*Pipeline) // renames one entity of a stamped 2x2x3 app
		uid   string
	}{
		{"duplicate pipeline UID", func(pipes []*Pipeline) { pipes[1].UID = pipes[0].UID }, "pipeline.000"},
		{"duplicate stage UID", func(pipes []*Pipeline) {
			pipes[0].Stages()[1].UID = pipes[0].Stages()[0].UID
		}, "stage.000.000"},
		{"one task UID twice in a stage", func(pipes []*Pipeline) {
			tasks := pipes[1].Stages()[0].Tasks()
			tasks[2].UID = tasks[0].UID
		}, "task.001.000.00000"},
		{"one task UID in two pipelines", func(pipes []*Pipeline) {
			pipes[1].Stages()[1].Tasks()[1].UID = pipes[0].Stages()[0].Tasks()[2].UID
		}, "task.000.000.00002"},
		{"clean", func([]*Pipeline) {}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			am, _ := testApp(t, Config{})
			pipes := buildApp(2, 2, 3, time.Second)
			stampUIDs(pipes)
			c.apply(pipes)
			am.AddPipelines(pipes...)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			run, err := am.Start(ctx)
			if c.uid == "" {
				if err != nil {
					t.Fatal(err)
				}
				if err := run.Wait(); err != nil {
					t.Fatal(err)
				}
				if n := am.TaskCount(); n != 12 {
					t.Fatalf("%d tasks registered, want 12", n)
				}
				return
			}
			if err == nil {
				run.Cancel("test: a duplicate started")
				run.Wait() //nolint:errcheck
				t.Fatalf("an app naming %s twice started", c.uid)
			}
			if !strings.Contains(err.Error(), "duplicate") || !strings.Contains(err.Error(), c.uid) {
				t.Fatalf("Start = %v, want a duplicate error naming %s", err, c.uid)
			}
		})
	}
}
