package core

import (
	"sync"
	"testing"
	"testing/quick"
)

// allTaskStates enumerates every task state for random-walk properties.
var allTaskStates = []TaskState{
	TaskInitial, TaskScheduling, TaskScheduled, TaskSubmitting,
	TaskSubmitted, TaskExecuted, TaskDone, TaskFailed, TaskCanceled,
}

// TestTaskStateWalkProperty drives random transition requests against a
// task and checks the machine's invariants: an accepted transition is in
// the legal table for the pre-state; a rejected one is not; the task ends in
// the state of the last transition it accepted; DONE and CANCELED absorb.
func TestTaskStateWalkProperty(t *testing.T) {
	check := func(moves []uint8) bool {
		task := NewTask("walk")
		last := TaskInitial // the target of the last accepted transition
		for _, m := range moves {
			to := allTaskStates[int(m)%len(allTaskStates)]
			from := task.State()
			err := task.advance(to)
			if err == nil {
				if !legalTask(from, to) {
					t.Logf("illegal transition %s -> %s accepted", from, to)
					return false
				}
				last = to
				if task.State() != to {
					return false
				}
			} else {
				if legalTask(from, to) {
					t.Logf("legal transition %s -> %s rejected", from, to)
					return false
				}
				if task.State() != from {
					return false // rejected transition mutated state
				}
			}
			if (from == TaskDone || from == TaskCanceled) && err == nil {
				t.Logf("terminal state %s accepted a transition", from)
				return false
			}
		}
		return task.State() == last
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTaskAttemptsCountSchedulingProperty: the attempt counter equals the
// number of accepted transitions into SCHEDULING, however the walk goes.
func TestTaskAttemptsCountSchedulingProperty(t *testing.T) {
	check := func(moves []uint8) bool {
		task := NewTask("attempts")
		wantAttempts := 0
		for _, m := range moves {
			to := allTaskStates[int(m)%len(allTaskStates)]
			if task.advance(to) == nil && to == TaskScheduling {
				wantAttempts++
			}
		}
		return task.Attempts() == wantAttempts
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAdvanceSingleWinner: when many goroutines race the same
// legal transition, exactly one wins; the rest observe a TransitionError.
func TestConcurrentAdvanceSingleWinner(t *testing.T) {
	for round := 0; round < 50; round++ {
		task := NewTask("race")
		const racers = 8
		var wg sync.WaitGroup
		errs := make([]error, racers)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = task.advance(TaskScheduling)
			}(i)
		}
		wg.Wait()
		wins := 0
		for _, err := range errs {
			if err == nil {
				wins++
			}
		}
		if wins != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", round, wins)
		}
		if task.State() != TaskScheduling || task.Attempts() != 1 {
			t.Fatalf("state %s attempts %d", task.State(), task.Attempts())
		}
	}
}

// TestStageWalkProperty mirrors the task walk for stages.
func TestStageWalkProperty(t *testing.T) {
	states := []StageState{
		StageInitial, StageScheduling, StageScheduled,
		StageDone, StageFailed, StageCanceled,
	}
	check := func(moves []uint8) bool {
		stage := NewStage("walk")
		for _, m := range moves {
			to := states[int(m)%len(states)]
			from := stage.State()
			err := stage.advance(to)
			if (err == nil) != legalStage(from, to) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineWalkProperty mirrors the task walk for pipelines.
func TestPipelineWalkProperty(t *testing.T) {
	states := []PipelineState{
		PipelineInitial, PipelineScheduling, PipelineSuspended,
		PipelineDone, PipelineFailed, PipelineCanceled,
	}
	check := func(moves []uint8) bool {
		pipe := NewPipeline("walk")
		for _, m := range moves {
			to := states[int(m)%len(states)]
			from := pipe.State()
			err := pipe.advance(to)
			if (err == nil) != legalPipeline(from, to) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
