package core

import "context"

// Run executes the application to completion (or ctx cancellation): Start,
// then Wait.
func (am *AppManager) Run(ctx context.Context) error {
	r, err := am.Start(ctx)
	if err != nil {
		return err
	}
	return r.Wait()
}

// TaskCount returns the number of registered tasks.
func (am *AppManager) TaskCount() int {
	am.mu.Lock()
	defer am.mu.Unlock()
	return len(am.tasks)
}

// Suspend pauses a scheduling pipeline; its queued tasks finish but no new
// stage starts until Resume.
func (p *Pipeline) Suspend() error { return p.advance(PipelineSuspended) }

// Resume reactivates a suspended pipeline.
func (p *Pipeline) Resume() error { return p.advance(PipelineScheduling) }

// StateHistory returns the sequence of states the task has traversed.
func (t *Task) StateHistory() []TaskState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TaskState, len(t.hist))
	for i, c := range t.hist {
		out[i] = taskStateNames[c]
	}
	return out
}
