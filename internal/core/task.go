package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

var uidCounter uint64

// NewUID returns a process-unique identifier with the given prefix, in the
// style of RADICAL's "task.0001" identifiers: "<prefix>.%06d".
func NewUID(prefix string) string {
	n := atomic.AddUint64(&uidCounter, 1)
	var buf [32]byte
	b := append(buf[:0], prefix...)
	b = append(b, '.')
	return string(AppendPadded(b, n, 6))
}

// AppendPadded appends n in decimal, zero-padded on the left to at least
// width digits — fmt's %0<width>d for a non-negative number, without fmt's
// boxed argument and scratch state. UIDs and entity names are formatted once
// per entity, and they are identity in journals and snapshots, so the digits
// must come out exactly as %0<width>d wrote them, wider values included.
func AppendPadded(b []byte, n uint64, width int) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// CPUReqs describes a task's CPU needs, mirroring EnTK's cpu_reqs dict.
type CPUReqs struct {
	// Processes is the number of processes (MPI ranks or replicas).
	Processes int
	// ThreadsPerProcess is the threads each process uses.
	ThreadsPerProcess int
}

// Cores returns the total cores the task occupies.
func (c CPUReqs) Cores() int {
	p, t := c.Processes, c.ThreadsPerProcess
	if p <= 0 {
		p = 1
	}
	if t <= 0 {
		t = 1
	}
	return p * t
}

// GPUReqs describes a task's GPU needs.
type GPUReqs struct {
	// Processes is the number of GPU-using processes.
	Processes int
}

// Staging actions supported by the RTS (paper §II-D: links, copies and
// transfers enacted via SAGA; the weak-scaling experiment uses 3 links and
// 1 copy per task).
const (
	StagingCopy     StagingAction = "copy"
	StagingLink     StagingAction = "link"
	StagingMove     StagingAction = "move"
	StagingTransfer StagingAction = "transfer"
)

// Task is the paper's atomic unit of execution: "a stand-alone process that
// has well defined input, output, termination criteria, and dedicated
// resources".
type Task struct {
	UID  string
	Name string

	// Executable names a workload kernel (e.g. "sleep", "mdrun",
	// "specfem", "canalogs") registered with the execution backend.
	Executable string
	// Arguments are passed to the kernel.
	Arguments []string
	// Environment is the task's environment variables.
	Environment map[string]string
	// PreExec and PostExec are shell-style setup/teardown commands; the
	// simulator accounts a fixed cost per entry.
	PreExec  []string
	PostExec []string

	CPUReqs CPUReqs
	GPUReqs GPUReqs

	// Duration is the modelled virtual runtime of the executable.
	Duration time.Duration
	// IOLoad is the sustained shared-filesystem load (1.0 ≈ one heavy
	// writer) the task imposes while executing; drives contention failures.
	IOLoad float64

	InputStaging  []StagingDirective
	OutputStaging []StagingDirective

	// MaxRetries bounds automatic resubmission of this task after failure.
	// Negative means "use the application default".
	MaxRetries int

	// Tags carry placement hints for heterogeneous execution (the paper's
	// future-work item (i): "dynamic mapping of tasks onto heterogeneous
	// resources"). The multi-pilot RTS router honours "resource" (a CI
	// name) when present.
	Tags map[string]string

	// LocalFunc, when non-nil, is executed in-process by the RTS executor
	// after the modelled duration elapses. It carries real computation
	// (e.g. an AnEn sub-region solve) into the workflow, the way the paper
	// embeds decision logic in tasks (§II-B1).
	LocalFunc func() error `json:"-"`

	mu       sync.RWMutex
	state    taskCode
	attempts int
	exitCode int
	execErr  string
	stage    *Stage // owning stage, set when the task is added to one

	// inflight marks the task submitted to the current RTS instance and not
	// yet reported back. The Emgr sets it before Submit, under its submitMu;
	// the callback loop clears it by compare-and-swap for the first result
	// that names the task, and failover takes every task still marked as lost.
	inflight atomic.Bool
}

// NewTask returns a task in the initial state with a fresh UID. MaxRetries
// defaults to -1, meaning "use the application-level retry budget".
func NewTask(name string) *Task {
	return &Task{
		UID:        NewUID("task"),
		Name:       name,
		MaxRetries: -1,
	}
}

// State returns the task's current state.
func (t *Task) State() TaskState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return taskStateNames[t.state]
}

// advance applies a state transition, enforcing the legal table.
func (t *Task) advance(to TaskState) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.advanceLocked(to, nil)
}

func (t *Task) advanceLocked(to TaskState, book *tallyBook) error {
	c, ok := taskCodes[to]
	if !ok || taskLegal[t.state]&(1<<c) == 0 {
		return &TransitionError{Entity: "task", UID: t.UID, From: string(taskStateNames[t.state]), To: string(to)}
	}
	attempts := 0
	if c == codeScheduling {
		attempts = 1
	}
	t.write(c, attempts, book)
	return nil
}

// commit is the Synchronizer's whole decision on one task transition request,
// under one hold of the task's lock: a request the cancellation rules absorb
// (taskSkip) changes nothing, anything else must be legal from the state the
// task is in, and its tally move goes into book. from is that state.
func (t *Task) commit(to TaskState, book *tallyBook) (from TaskState, absorbed bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	from = taskStateNames[t.state]
	if taskSkip(from, to) {
		return from, true, nil
	}
	return from, false, t.advanceLocked(to, book)
}

// forceState sets the state without legality checks; used by recovery, which
// replays states that were validated when first applied, and by the
// cancellation of whatever a canceled run left unfinished.
func (t *Task) forceState(s TaskState) {
	c, ok := taskCodes[s]
	if !ok {
		panic("core: forceState to unknown task state " + string(s))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.write(c, 0, nil)
}

// write is every task state write: the state, the attempt counter, and the
// owning stage's tallies. With a book (the Synchronizer's) the tally move is
// booked there and applied with the rest of the request; without one (a
// forced write, or a transition outside the Synchronizer) it moves the stage's
// and the run's tallies now. t.mu must be held.
func (t *Task) write(to taskCode, attempts int, book *tallyBook) {
	from := t.state
	t.state = to
	t.attempts += attempts
	switch {
	case t.stage == nil:
	case book != nil:
		book.move(&t.stage.tally, from, to, attempts)
	default:
		t.stage.tally.move(from, to, attempts)
	}
}

// Attempts returns how many times the task entered SCHEDULING.
func (t *Task) Attempts() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.attempts
}

// setResult records the executable's outcome.
func (t *Task) setResult(exitCode int, execErr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.exitCode = exitCode
	t.execErr = execErr
}

// ExitCode returns the last recorded exit code.
func (t *Task) ExitCode() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.exitCode
}

// ExecError returns the last recorded execution error string.
func (t *Task) ExecError() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.execErr
}

// Parent returns the UIDs of the pipeline and stage owning this task.
func (t *Task) Parent() (pipelineUID, stageUID string) {
	s := t.parentStage()
	if s == nil {
		return "", ""
	}
	return s.Parent(), s.UID
}

// parentStage returns the stage the task was added to, nil before that.
func (t *Task) parentStage() *Stage {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stage
}

// enter makes s the task's stage and counts the task, in the state it is in,
// into the stage's tallies.
func (t *Task) enter(s *Stage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stage = s
	s.tally.add(t.state, t.attempts)
}

// Validate checks the task description for user errors before execution.
func (t *Task) Validate() error {
	if t.UID == "" {
		return errors.New("core: task with empty UID")
	}
	if t.Executable == "" && t.LocalFunc == nil {
		return fmt.Errorf("core: task %s (%s) has no executable", t.UID, t.Name)
	}
	if t.Duration < 0 {
		return fmt.Errorf("core: task %s has negative duration", t.UID)
	}
	if t.CPUReqs.Processes < 0 || t.CPUReqs.ThreadsPerProcess < 0 {
		return fmt.Errorf("core: task %s has negative CPU requirements", t.UID)
	}
	if t.IOLoad < 0 {
		return fmt.Errorf("core: task %s has negative IO load", t.UID)
	}
	for _, d := range append(append([]StagingDirective{}, t.InputStaging...), t.OutputStaging...) {
		switch d.Action {
		case StagingCopy, StagingLink, StagingMove, StagingTransfer:
		default:
			return fmt.Errorf("core: task %s has invalid staging action %q", t.UID, d.Action)
		}
		if d.Bytes < 0 {
			return fmt.Errorf("core: task %s has negative staging size", t.UID)
		}
	}
	return nil
}
