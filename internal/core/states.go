// Package core implements the paper's primary contribution: the Ensemble
// Toolkit's PST programming model (Pipelines of Stages of Tasks), its
// three-layer architecture (API, Workflow Management, Workload Management),
// its execution model over a broker-mediated queue topology, and its failure
// model (task resubmission, RTS restart, journaled transactional state).
package core

import "fmt"

// TaskState is a task's lifecycle state (paper §II-B3: "tasks, stages and
// pipelines undergo multiple state transitions in both WFProcessor and
// ExecManager").
type TaskState string

// Task states, in nominal order of traversal.
const (
	TaskInitial    TaskState = "DESCRIBED"
	TaskScheduling TaskState = "SCHEDULING"
	TaskScheduled  TaskState = "SCHEDULED"
	TaskSubmitting TaskState = "SUBMITTING"
	TaskSubmitted  TaskState = "SUBMITTED"
	TaskExecuted   TaskState = "EXECUTED"
	TaskDone       TaskState = "DONE"
	TaskFailed     TaskState = "FAILED"
	TaskCanceled   TaskState = "CANCELED"
)

// Terminal reports whether the state is final for one attempt. A FAILED task
// may still be resubmitted, which re-enters SCHEDULING.
func (s TaskState) Terminal() bool {
	return s == TaskDone || s == TaskFailed || s == TaskCanceled
}

// taskCode is a TaskState in compact form: its index in taskStateNames, the
// nominal order of traversal, with DESCRIBED as the zero value. A task keeps
// its state and its history in codes, and its stage tallies tasks per code,
// so committing a transition compares and stores bytes instead of strings.
type taskCode uint8

const (
	codeInitial taskCode = iota
	codeScheduling
	codeScheduled
	codeSubmitting
	codeSubmitted
	codeExecuted
	codeDone
	codeFailed
	codeCanceled
	numTaskStates
)

var taskStateNames = [numTaskStates]TaskState{
	TaskInitial, TaskScheduling, TaskScheduled, TaskSubmitting, TaskSubmitted,
	TaskExecuted, TaskDone, TaskFailed, TaskCanceled,
}

// taskCodes inverts taskStateNames; the empty name is the initial state, as
// everywhere.
var taskCodes = func() map[TaskState]taskCode {
	codes := map[TaskState]taskCode{"": codeInitial}
	for c, s := range taskStateNames {
		codes[s] = taskCode(c)
	}
	return codes
}()

// taskTransitions is the legal task state machine. FAILED→SCHEDULING encodes
// resubmission of failed tasks without restarting completed ones (§II-A);
// FAILED→CANCELED lets a cancellation override a pending resubmission (a
// failed task awaiting retry in a canceled pipeline must not re-enter
// flight).
var taskTransitions = map[TaskState][]TaskState{
	TaskInitial:    {TaskScheduling, TaskCanceled},
	TaskScheduling: {TaskScheduled, TaskFailed, TaskCanceled},
	TaskScheduled:  {TaskSubmitting, TaskFailed, TaskCanceled},
	TaskSubmitting: {TaskSubmitted, TaskFailed, TaskCanceled},
	TaskSubmitted:  {TaskExecuted, TaskFailed, TaskCanceled},
	TaskExecuted:   {TaskDone, TaskFailed, TaskCanceled},
	TaskFailed:     {TaskScheduling, TaskCanceled},
	TaskDone:       {},
	TaskCanceled:   {},
}

// taskLegal is taskTransitions indexed by code: bit `to` of taskLegal[from]
// is set when from -> to is legal.
var taskLegal = func() (legal [numTaskStates]uint16) {
	for from, tos := range taskTransitions {
		for _, to := range tos {
			legal[taskCodes[from]] |= 1 << taskCodes[to]
		}
	}
	return legal
}()

// StageState is a stage's lifecycle state.
type StageState string

// Stage states.
const (
	StageInitial    StageState = "DESCRIBED"
	StageScheduling StageState = "SCHEDULING"
	StageScheduled  StageState = "SCHEDULED"
	StageDone       StageState = "DONE"
	StageFailed     StageState = "FAILED"
	StageCanceled   StageState = "CANCELED"
)

// Terminal reports whether the stage state is final.
func (s StageState) Terminal() bool {
	return s == StageDone || s == StageFailed || s == StageCanceled
}

var stageTransitions = map[StageState][]StageState{
	StageInitial:    {StageScheduling, StageCanceled},
	StageScheduling: {StageScheduled, StageFailed, StageCanceled},
	StageScheduled:  {StageDone, StageFailed, StageCanceled},
	StageDone:       {},
	StageFailed:     {},
	StageCanceled:   {},
}

// PipelineState is a pipeline's lifecycle state.
type PipelineState string

// Pipeline states. SUSPENDED supports adaptive applications that pause a
// pipeline while a decision task runs elsewhere.
const (
	PipelineInitial    PipelineState = "DESCRIBED"
	PipelineScheduling PipelineState = "SCHEDULING"
	PipelineSuspended  PipelineState = "SUSPENDED"
	PipelineDone       PipelineState = "DONE"
	PipelineFailed     PipelineState = "FAILED"
	PipelineCanceled   PipelineState = "CANCELED"
)

// Terminal reports whether the pipeline state is final.
func (s PipelineState) Terminal() bool {
	return s == PipelineDone || s == PipelineFailed || s == PipelineCanceled
}

var pipelineTransitions = map[PipelineState][]PipelineState{
	PipelineInitial:    {PipelineScheduling, PipelineCanceled},
	PipelineScheduling: {PipelineSuspended, PipelineDone, PipelineFailed, PipelineCanceled},
	// A suspended pipeline resumes, is canceled, or fails: suspension only
	// gates the scheduling of new stages, so a failure in the stage already
	// in flight must still be able to fail the pipeline.
	PipelineSuspended: {PipelineScheduling, PipelineFailed, PipelineCanceled},
	PipelineDone:      {},
	PipelineFailed:    {},
	PipelineCanceled:  {},
}

// TransitionError reports an illegal state transition.
type TransitionError struct {
	Entity string
	UID    string
	From   string
	To     string
}

// Error implements error.
func (e *TransitionError) Error() string {
	return fmt.Sprintf("core: illegal %s transition %s -> %s (uid %s)",
		e.Entity, e.From, e.To, e.UID)
}

func legalTask(from, to TaskState) bool {
	for _, s := range taskTransitions[from] {
		if s == to {
			return true
		}
	}
	return false
}

func legalStage(from, to StageState) bool {
	for _, s := range stageTransitions[from] {
		if s == to {
			return true
		}
	}
	return false
}

func legalPipeline(from, to PipelineState) bool {
	for _, s := range pipelineTransitions[from] {
		if s == to {
			return true
		}
	}
	return false
}
