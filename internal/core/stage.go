package core

import (
	"fmt"
	"sync"
)

// Stage is "a set of tasks without mutual dependences and that can be
// executed concurrently" (paper §II-B1).
type Stage struct {
	UID  string
	Name string

	// PostExec, when non-nil, runs after the stage reaches DONE and before
	// the pipeline advances. It is EnTK's adaptivity hook: the paper's
	// branching events are "tasks where a decision is made about the
	// runtime flow"; PostExec lets that decision add stages to the owning
	// pipeline (used by the AUA use case to iterate until convergence).
	PostExec func() error `json:"-"`

	mu    sync.RWMutex
	tasks []*Task
	state StageState
	pipe  *Pipeline // owning pipeline, set when the stage is added to one
	tally taskTally
}

// taskTally counts a set of tasks by state, with the attempts they have made.
// Every stage keeps one over its tasks: Stage.AddTask counts a task in and
// every task state write (Task.write) moves it, so the tally equals a walk
// over the tasks at every instant, and stage completion, Snapshot and
// ActiveTasks read tallies and never visit a task. A registered stage's
// tally also feeds its run's (up).
type taskTally struct {
	mu       sync.Mutex
	n        [numTaskStates]int
	attempts int
	up       *taskTally
}

// add counts in one task in the given state that has made the given
// attempts. Tasks join a stage before the stage is registered, so there is
// no run to tell yet.
func (c *taskTally) add(state taskCode, attempts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n[state]++
	c.attempts += attempts
}

// move records one task's state write.
func (c *taskTally) move(from, to taskCode, attempts int) {
	c.mu.Lock()
	c.n[from]--
	c.n[to]++
	c.attempts += attempts
	up := c.up
	c.mu.Unlock()
	if up != nil {
		up.move(from, to, attempts)
	}
}

// read returns the counts per state and the attempt total, as of one instant.
func (c *taskTally) read() (n [numTaskStates]int, attempts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, c.attempts
}

// feed makes up the tally this one reports to, starting with everything it
// has counted so far.
func (c *taskTally) feed(up *taskTally) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.up = up
	up.mu.Lock()
	for state, k := range c.n {
		up.n[state] += k
	}
	up.attempts += c.attempts
	up.mu.Unlock()
}

// active is the number of counted tasks under management: scheduled at least
// once this attempt and not yet terminal (SCHEDULING through EXECUTED).
func active(n [numTaskStates]int) int {
	k := 0
	for _, c := range n[codeScheduling : codeExecuted+1] {
		k += c
	}
	return k
}

// NewStage returns an empty stage in the initial state.
func NewStage(name string) *Stage {
	return &Stage{
		UID:   NewUID("stage"),
		Name:  name,
		state: StageInitial,
	}
}

// AddTask appends a task to the stage. Only legal before the stage starts
// scheduling.
func (s *Stage) AddTask(t *Task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StageInitial && s.state != "" {
		return fmt.Errorf("core: cannot add task to stage %s in state %s", s.UID, s.state)
	}
	s.tasks = append(s.tasks, t)
	t.enter(s)
	return nil
}

// AddTasks appends several tasks.
func (s *Stage) AddTasks(ts ...*Task) error {
	for _, t := range ts {
		if err := s.AddTask(t); err != nil {
			return err
		}
	}
	return nil
}

// Tasks returns the stage's tasks.
func (s *Stage) Tasks() []*Task {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Task, len(s.tasks))
	copy(out, s.tasks)
	return out
}

// eachTask calls fn for every task of the stage, in order, under the stage's
// read lock and without the copy Tasks makes. fn may take task locks (AddTask
// takes them under the stage's lock too) and must not add to the stage.
func (s *Stage) eachTask(fn func(*Task)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, t := range s.tasks {
		fn(t)
	}
}

// TaskCount returns the number of tasks in the stage.
func (s *Stage) TaskCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tasks)
}

// State returns the stage's current state.
func (s *Stage) State() StageState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.state == "" {
		return StageInitial
	}
	return s.state
}

func (s *Stage) advance(to StageState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	from := s.state
	if from == "" {
		from = StageInitial
	}
	if !legalStage(from, to) {
		return &TransitionError{Entity: "stage", UID: s.UID, From: string(from), To: string(to)}
	}
	s.state = to
	return nil
}

func (s *Stage) forceState(st StageState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = st
}

// Parent returns the owning pipeline's UID.
func (s *Stage) Parent() string {
	if p := s.pipeline(); p != nil {
		return p.UID
	}
	return ""
}

// pipeline returns the pipeline the stage was added to, nil before that.
func (s *Stage) pipeline() *Pipeline {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pipe
}

func (s *Stage) setPipeline(p *Pipeline) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pipe = p
}

// tasksTerminal reports whether every task has reached a terminal state and
// whether any ended FAILED or CANCELED.
func (s *Stage) tasksTerminal() (allTerminal bool, anyFailed, anyCanceled bool) {
	n, _ := s.tally.read()
	live := n[codeInitial] + active(n)
	return live == 0, n[codeFailed] > 0, n[codeCanceled] > 0
}

// Validate checks the stage description.
func (s *Stage) Validate() error {
	if s.UID == "" {
		return fmt.Errorf("core: stage with empty UID")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tasks) == 0 {
		return fmt.Errorf("core: stage %s (%s) has no tasks", s.UID, s.Name)
	}
	for _, t := range s.tasks {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}
