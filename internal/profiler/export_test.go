package profiler

import (
	"sync"

	"repro/internal/vclock"
)

// Categories lists all categories in the paper's plotting order.
func Categories() []Category {
	return []Category{
		EnTKSetup, EnTKTeardown, EnTKManagement,
		RTSTeardown, RTSOverhead, DataStaging, TaskExecution,
	}
}

// Span starts measuring a category and returns a stop function that charges
// the virtual time clock has advanced since.
func (p *Profiler) Span(clock vclock.Clock, cat Category) (stop func()) {
	start := clock.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			p.Add(cat, clock.Now().Sub(start))
		})
	}
}

// Touch extends the category's activity window to include clock's current
// virtual instant: Observe is Touch at the activity's begin, Touch at its end
// and an Add.
func (p *Profiler) Touch(clock vclock.Clock, cat Category) {
	now := clock.Now()
	p.mu.Lock()
	p.tallyLocked(cat).extend(now)
	p.mu.Unlock()
}
