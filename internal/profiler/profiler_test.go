package profiler

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestAddAndSum(t *testing.T) {
	p := New()
	p.Add(EnTKSetup, 100*time.Millisecond)
	p.Add(EnTKSetup, 50*time.Millisecond)
	p.Add(RTSOverhead, time.Second)
	if got := p.Sum(EnTKSetup); got != 150*time.Millisecond {
		t.Fatalf("sum = %v", got)
	}
	if got := p.Sum(EnTKTeardown); got != 0 {
		t.Fatalf("untouched category sum = %v", got)
	}
}

func TestAddClampsNegative(t *testing.T) {
	p := New()
	p.Add(EnTKSetup, -time.Second)
	if got := p.Sum(EnTKSetup); got != 0 {
		t.Fatalf("negative add produced sum %v", got)
	}
}

func TestSpanMeasuresVirtualTime(t *testing.T) {
	c := vclock.NewManual()
	p := New()
	stop := p.Span(c, EnTKManagement)
	c.Advance(7 * time.Second)
	stop()
	stop() // idempotent
	if got := p.Sum(EnTKManagement); got != 7*time.Second {
		t.Fatalf("span sum = %v, want 7s", got)
	}
}

func TestWindowMakespan(t *testing.T) {
	c := vclock.NewManual()
	p := New()
	p.Touch(c, TaskExecution) // first task starts
	c.Advance(100 * time.Second)
	p.Touch(c, TaskExecution)
	c.Advance(50 * time.Second)
	p.Touch(c, TaskExecution) // last task ends
	if got := p.Window(TaskExecution); got != 150*time.Second {
		t.Fatalf("window = %v, want 150s", got)
	}
	if got := p.Window(DataStaging); got != 0 {
		t.Fatalf("untouched window = %v", got)
	}
}

func TestReportUsesWindowForTaskExecution(t *testing.T) {
	c := vclock.NewManual()
	p := New()
	p.Add(EnTKSetup, 100*time.Millisecond)
	p.Add(EnTKManagement, 10*time.Second)
	p.Add(DataStaging, 11*time.Second)
	p.Touch(c, TaskExecution)
	c.Advance(600 * time.Second)
	p.Touch(c, TaskExecution)
	// Extra per-task execution sums must not leak into the makespan figure.
	p.Add(TaskExecution, 4096*600*time.Second)
	r := p.Report()
	if r.TaskExecution != 600 {
		t.Fatalf("task execution = %v, want 600", r.TaskExecution)
	}
	if r.EnTKSetup != 0.1 || r.EnTKManagement != 10 || r.DataStaging != 11 {
		t.Fatalf("report: %+v", r)
	}
}

// TestObserveMatchesTouchTouchAdd pins Observe to the three calls it
// replaced in the RTS executor: for interleaved tasks — some nested in others,
// one charged a negative duration — Touch at the begin, Touch at the end and
// Add leave exactly the Report, Window and Sum that one Observe at the end
// does.
func TestObserveMatchesTouchTouchAdd(t *testing.T) {
	type task struct{ begin, end, charged time.Duration }
	tasks := []task{
		{begin: 5 * time.Second, end: 40 * time.Second, charged: 30 * time.Second},
		{begin: 2 * time.Second, end: 9 * time.Second, charged: 7 * time.Second},
		{begin: 7 * time.Second, end: 8 * time.Second, charged: -time.Second},
		{begin: 8 * time.Second, end: 55 * time.Second, charged: 45 * time.Second},
		{begin: 30 * time.Second, end: 31 * time.Second, charged: 0},
	}
	// The three-call sequence reads the clock, so it is played in time order.
	type event struct {
		at    time.Duration
		task  int
		isEnd bool
	}
	var events []event
	for i, tk := range tasks {
		events = append(events, event{tk.begin, i, false}, event{tk.end, i, true})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })

	clock := vclock.NewManual()
	three, one := New(), New()
	for _, p := range []*Profiler{three, one} {
		p.Add(DataStaging, 11*time.Second) // another category stays apart
	}
	for _, ev := range events {
		clock.Advance(vclock.Epoch.Add(ev.at).Sub(clock.Now()))
		tk := tasks[ev.task]
		three.Touch(clock, TaskExecution)
		if ev.isEnd {
			three.Add(TaskExecution, tk.charged)
			one.Observe(TaskExecution, vclock.Epoch.Add(tk.begin), vclock.Epoch.Add(tk.end), tk.charged)
		}
	}
	if three.Report() != one.Report() {
		t.Fatalf("reports differ:\nthree calls %+v\none call    %+v", three.Report(), one.Report())
	}
	for _, cat := range Categories() {
		if three.Window(cat) != one.Window(cat) || three.Sum(cat) != one.Sum(cat) {
			t.Fatalf("%s: three calls window %v sum %v, one call window %v sum %v", cat,
				three.Window(cat), three.Sum(cat), one.Window(cat), one.Sum(cat))
		}
	}
	if got := one.Window(TaskExecution); got != 53*time.Second {
		t.Fatalf("window = %v, want 53s (2s..55s)", got)
	}
	if got := one.Sum(TaskExecution); got != 82*time.Second {
		t.Fatalf("sum = %v, want 82s", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	p := New()
	clock := vclock.NewScaled(time.Microsecond)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				p.Add(EnTKManagement, time.Millisecond)
				p.Touch(clock, TaskExecution)
			}
		}()
	}
	wg.Wait()
	if got := p.Sum(EnTKManagement); got != 1600*time.Millisecond {
		t.Fatalf("concurrent sum = %v", got)
	}
}

func TestCategoriesCoverPaperLegend(t *testing.T) {
	cats := Categories()
	if len(cats) != 7 {
		t.Fatalf("expected the paper's 7 categories, got %d", len(cats))
	}
	seen := map[Category]bool{}
	for _, c := range cats {
		seen[c] = true
	}
	for _, want := range []Category{EnTKSetup, EnTKManagement, EnTKTeardown,
		RTSOverhead, RTSTeardown, DataStaging, TaskExecution} {
		if !seen[want] {
			t.Fatalf("category %q missing", want)
		}
	}
}
