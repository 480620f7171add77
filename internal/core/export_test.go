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

// EnqueueFrames counts the sync frames the enqueue loop has had acknowledged:
// the publishes on its reply queue.
func (am *AppManager) EnqueueFrames() (uint64, error) {
	st, err := am.brk.Stats(am.qname(qAckEnq))
	return st.Published, err
}
