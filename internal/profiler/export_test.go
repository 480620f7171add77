package profiler

import "sync"

// Categories lists all categories in the paper's plotting order.
func Categories() []Category {
	return []Category{
		EnTKSetup, EnTKTeardown, EnTKManagement,
		RTSTeardown, RTSOverhead, DataStaging, TaskExecution,
	}
}

// Span starts measuring a category and returns a stop function that charges
// the elapsed virtual time.
func (p *Profiler) Span(cat Category) (stop func()) {
	start := p.clock.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			p.Add(cat, p.clock.Now().Sub(start))
		})
	}
}

// Touch extends the category's activity window to include the current
// virtual instant: Observe is Touch at the activity's begin, Touch at its end
// and an Add.
func (p *Profiler) Touch(cat Category) {
	now := p.clock.Now()
	p.mu.Lock()
	p.tallyLocked(cat).extend(now)
	p.mu.Unlock()
}
