// Package profiler measures the quantities the paper's evaluation reports
// (§IV-A): EnTK setup, management and tear-down overheads, RTS overhead and
// tear-down, data-staging time and task-execution time — all in virtual
// seconds, so the reproduced figures use the paper's axes.
//
// The paper's EnTK characterizes itself "via a profiler"; this package plays
// that role. Components charge durations to categories as they incur them
// (Add) and record finished activities (Observe), whose windows give
// makespans such as Task Execution Time.
package profiler

import (
	"sync"
	"time"
)

// Category names a measured quantity. The seven constants below are the
// paper's legend in Figs 7–9.
type Category string

// Measurement categories from the paper.
const (
	EnTKSetup      Category = "entk_setup"      // messaging infra + component instantiation + validation
	EnTKManagement Category = "entk_management" // task translation and communication
	EnTKTeardown   Category = "entk_teardown"   // cancel components, shutdown messaging
	RTSOverhead    Category = "rts_overhead"    // RTS submission/management time
	RTSTeardown    Category = "rts_teardown"    // RTS component cancellation
	DataStaging    Category = "data_staging"    // copying data between tasks
	TaskExecution  Category = "task_execution"  // executable runtime on the CI
)

// tally is everything recorded for one category: the charged sum and the
// activity window.
type tally struct {
	sum   time.Duration
	first time.Time
	last  time.Time
	set   bool // the window has been touched
}

// charge adds one measurement of d (negative counts as zero).
func (t *tally) charge(d time.Duration) {
	if d > 0 {
		t.sum += d
	}
}

// extend widens the activity window to include at.
func (t *tally) extend(at time.Time) {
	if !t.set {
		t.first, t.last, t.set = at, at, true
		return
	}
	if at.Before(t.first) {
		t.first = at
	}
	if at.After(t.last) {
		t.last = at
	}
}

// Profiler accumulates category durations and activity windows. It is safe
// for concurrent use.
type Profiler struct {
	mu      sync.Mutex
	tallies map[Category]*tally
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{tallies: make(map[Category]*tally)}
}

// tallyLocked returns the category's tally, creating it on first use.
func (p *Profiler) tallyLocked(cat Category) *tally {
	t := p.tallies[cat]
	if t == nil {
		t = &tally{}
		p.tallies[cat] = t
	}
	return t
}

// Add charges d to the category's running sum.
func (p *Profiler) Add(cat Category, d time.Duration) {
	p.mu.Lock()
	p.tallyLocked(cat).charge(d)
	p.mu.Unlock()
}

// Observe records one finished activity under a single lock hold: it extends
// the category's window to cover [begin, end] and charges d; Window then
// reports last end minus first begin (the makespan).
func (p *Profiler) Observe(cat Category, begin, end time.Time, d time.Duration) {
	p.mu.Lock()
	t := p.tallyLocked(cat)
	t.extend(begin)
	t.extend(end)
	t.charge(d)
	p.mu.Unlock()
}

// Sum returns the accumulated duration for a category.
func (p *Profiler) Sum(cat Category) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t := p.tallies[cat]; t != nil {
		return t.sum
	}
	return 0
}

// Window returns the category's activity makespan (zero if never touched).
func (p *Profiler) Window(cat Category) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t := p.tallies[cat]; t != nil && t.set {
		return t.last.Sub(t.first)
	}
	return 0
}

// Report is the per-run measurement set matching the paper's figure legend,
// in virtual seconds.
type Report struct {
	EnTKSetup      float64 `json:"entk_setup_s"`
	EnTKManagement float64 `json:"entk_management_s"`
	EnTKTeardown   float64 `json:"entk_teardown_s"`
	RTSOverhead    float64 `json:"rts_overhead_s"`
	RTSTeardown    float64 `json:"rts_teardown_s"`
	DataStaging    float64 `json:"data_staging_s"`
	TaskExecution  float64 `json:"task_execution_s"`
}

// Report assembles the paper-style measurement set. Sums are used for the
// overhead categories and data staging (a single sequential stager makes the
// sum equal the busy time); the task-execution figure is the activity
// window, i.e. first task start to last task end.
func (p *Profiler) Report() Report {
	return Report{
		EnTKSetup:      p.Sum(EnTKSetup).Seconds(),
		EnTKManagement: p.Sum(EnTKManagement).Seconds(),
		EnTKTeardown:   p.Sum(EnTKTeardown).Seconds(),
		RTSOverhead:    p.Sum(RTSOverhead).Seconds(),
		RTSTeardown:    p.Sum(RTSTeardown).Seconds(),
		DataStaging:    p.Sum(DataStaging).Seconds(),
		TaskExecution:  p.Window(TaskExecution).Seconds(),
	}
}
