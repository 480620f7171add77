package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestTaskNominalPath(t *testing.T) {
	task := NewTask("t")
	path := []TaskState{
		TaskScheduling, TaskScheduled, TaskSubmitting,
		TaskSubmitted, TaskExecuted, TaskDone,
	}
	for _, s := range path {
		if err := task.advance(s); err != nil {
			t.Fatalf("advance to %s: %v", s, err)
		}
	}
	if got := task.State(); got != TaskDone {
		t.Fatalf("final state = %s", got)
	}
	if got := task.Attempts(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
}

func TestTaskIllegalTransitions(t *testing.T) {
	cases := []struct {
		from, to TaskState
	}{
		{TaskInitial, TaskDone},
		{TaskInitial, TaskSubmitted},
		{TaskDone, TaskScheduling},
		{TaskCanceled, TaskScheduling},
		{TaskScheduled, TaskExecuted},
		{TaskSubmitted, TaskDone},
	}
	for _, c := range cases {
		task := NewTask("t")
		task.forceState(c.from)
		err := task.advance(c.to)
		if err == nil {
			t.Fatalf("transition %s -> %s allowed", c.from, c.to)
		}
		var te *TransitionError
		if !asTransitionError(err, &te) {
			t.Fatalf("error type %T", err)
		}
		if !strings.Contains(te.Error(), string(c.from)) {
			t.Fatalf("error %q does not mention source state", te.Error())
		}
	}
}

func asTransitionError(err error, out **TransitionError) bool {
	te, ok := err.(*TransitionError)
	if ok {
		*out = te
	}
	return ok
}

func TestFailedTaskCanReschedule(t *testing.T) {
	task := NewTask("t")
	for _, s := range []TaskState{TaskScheduling, TaskScheduled, TaskSubmitting, TaskSubmitted, TaskExecuted, TaskFailed} {
		if err := task.advance(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := task.advance(TaskScheduling); err != nil {
		t.Fatalf("resubmission transition rejected: %v", err)
	}
	if got := task.Attempts(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

func TestTaskTerminalClassification(t *testing.T) {
	for _, s := range []TaskState{TaskDone, TaskFailed, TaskCanceled} {
		if !s.Terminal() {
			t.Fatalf("%s should be terminal", s)
		}
	}
	for _, s := range []TaskState{TaskInitial, TaskScheduling, TaskScheduled, TaskSubmitting, TaskSubmitted, TaskExecuted} {
		if s.Terminal() {
			t.Fatalf("%s should not be terminal", s)
		}
	}
}

func TestStageStateMachine(t *testing.T) {
	s := NewStage("s")
	for _, st := range []StageState{StageScheduling, StageScheduled, StageDone} {
		if err := s.advance(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.advance(StageScheduling); err == nil {
		t.Fatal("DONE stage allowed to reschedule")
	}
	s2 := NewStage("s2")
	if err := s2.advance(StageDone); err == nil {
		t.Fatal("INITIAL -> DONE allowed")
	}
}

func TestPipelineStateMachine(t *testing.T) {
	p := NewPipeline("p")
	if err := p.advance(PipelineScheduling); err != nil {
		t.Fatal(err)
	}
	if err := p.Suspend(); err != nil {
		t.Fatal(err)
	}
	if p.State() != PipelineSuspended {
		t.Fatalf("state = %s", p.State())
	}
	if err := p.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := p.advance(PipelineDone); err != nil {
		t.Fatal(err)
	}
	if err := p.Resume(); err == nil {
		t.Fatal("DONE pipeline resumed")
	}
}

func TestTransitionTablesAreClosed(t *testing.T) {
	// Every state reachable from the tables must itself be in the tables.
	for from, tos := range taskTransitions {
		for _, to := range tos {
			if _, ok := taskTransitions[to]; !ok {
				t.Fatalf("task state %s reachable from %s but has no row", to, from)
			}
		}
	}
	for from, tos := range stageTransitions {
		for _, to := range tos {
			if _, ok := stageTransitions[to]; !ok {
				t.Fatalf("stage state %s reachable from %s but has no row", to, from)
			}
		}
	}
	for from, tos := range pipelineTransitions {
		for _, to := range tos {
			if _, ok := pipelineTransitions[to]; !ok {
				t.Fatalf("pipeline state %s reachable from %s but has no row", to, from)
			}
		}
	}
}

func TestTerminalStatesHaveNoSuccessors(t *testing.T) {
	for _, s := range []TaskState{TaskDone, TaskCanceled} {
		if len(taskTransitions[s]) != 0 {
			t.Fatalf("terminal task state %s has successors", s)
		}
	}
	// FAILED is special: resubmission, or cancellation overriding it.
	if len(taskTransitions[TaskFailed]) != 2 ||
		taskTransitions[TaskFailed][0] != TaskScheduling ||
		taskTransitions[TaskFailed][1] != TaskCanceled {
		t.Fatal("FAILED must transition only to SCHEDULING or CANCELED")
	}
}

// Event.Terminal lives with the wire codec, which has no state tables: it
// must classify every state of every table exactly as the table's own type.
func TestEventTerminalMatchesStateMachines(t *testing.T) {
	check := func(kind EventKind, to string, want bool) {
		if got := (Event{Kind: kind, To: to}).Terminal(); got != want {
			t.Errorf("Event{%s, To: %s}.Terminal() = %v, want %v", kind, to, got, want)
		}
	}
	for s := range taskTransitions {
		check(EventTask, string(s), s.Terminal())
		check(EventKnob, string(s), false)
	}
	for s := range stageTransitions {
		check(EventStage, string(s), s.Terminal())
		check(EventKnob, string(s), false)
	}
	for s := range pipelineTransitions {
		check(EventPipeline, string(s), s.Terminal())
		check(EventKnob, string(s), false)
	}
}

func TestUIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		uid := NewUID("task")
		if seen[uid] {
			t.Fatalf("duplicate uid %s", uid)
		}
		seen[uid] = true
	}
}

// UIDs are identity in journals, snapshots and Resume, so the hand-rolled
// formatter must write exactly what fmt's %0<width>d wrote — at the pad, one
// short of it, and past it, where the number simply takes the room it needs.
func TestAppendPaddedMatchesFmt(t *testing.T) {
	for _, width := range []int{0, 1, 3, 5, 6} {
		for _, n := range []uint64{0, 7, 9, 10, 99, 100, 999, 1000, 12345, 99999, 100000, 999999, 1000000, 1<<64 - 1} {
			want := fmt.Sprintf("x%0*d", width, n)
			if got := string(AppendPadded([]byte("x"), n, width)); got != want {
				t.Errorf("AppendPadded(%d, width %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}

func TestNewUIDFormat(t *testing.T) {
	defer atomic.StoreUint64(&uidCounter, atomic.LoadUint64(&uidCounter)) // later tests go on from here
	for _, tc := range []struct {
		counter uint64
		prefix  string
		want    string
	}{
		{0, "task", "task.000001"},
		{41, "stage", "stage.000042"},
		{999998, "pipeline", "pipeline.999999"},
		{999999, "task", "task.1000000"}, // wider than the pad
		{5, "a-prefix-longer-than-the-stack-buffer-it-is-built-in", "a-prefix-longer-than-the-stack-buffer-it-is-built-in.000006"},
	} {
		atomic.StoreUint64(&uidCounter, tc.counter)
		if got := NewUID(tc.prefix); got != tc.want {
			t.Errorf("NewUID(%q) after %d = %q, want %q", tc.prefix, tc.counter, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { NewUID("task") }); n != 1 {
		t.Errorf("NewUID allocates %v times, want 1 (the string)", n)
	}
}
