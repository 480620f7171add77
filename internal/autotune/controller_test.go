package autotune

import (
	"testing"
	"time"

	"repro/internal/tuning"
)

// stream builds a synthetic cumulative-signal stream: gen(i) returns the
// i-th sample (0-based). Step 0 is the controller's delta baseline.
func feed(t *testing.T, c *Controller, n int, gen func(i int) Signals) []KnobChange {
	t.Helper()
	var out []KnobChange
	for i := 0; i < n; i++ {
		out = append(out, c.Step(gen(i))...)
	}
	return out
}

func TestPressureRampGrowsBatch(t *testing.T) {
	live := tuning.NewBounded(64, 1, 1024, 1)
	c := NewController(live, Policy{Enabled: true})

	// Sustained backlog far above 4x any reachable batch size.
	changes := feed(t, c, 20, func(i int) Signals {
		return Signals{QueueDepth: 5000, StoreDepth: 5000}
	})

	// Patience 2 + cooldown 2 => one doubling every 4 samples after the
	// baseline: 64 -> 128 -> 256 -> 512 -> 1024, then clamped silence.
	want := [][2]int{{64, 128}, {128, 256}, {256, 512}, {512, 1024}}
	if len(changes) != len(want) {
		t.Fatalf("got %d changes %v, want %d", len(changes), changes, len(want))
	}
	for i, ch := range changes {
		if ch.From != want[i][0] || ch.To != want[i][1] {
			t.Fatalf("change %d = %+v, want batch %d -> %d", i, ch, want[i][0], want[i][1])
		}
		if ch.Reason != "queue-pressure" {
			t.Fatalf("change %d reason = %q, want queue-pressure", i, ch.Reason)
		}
	}
	if live.BatchSize() != 1024 {
		t.Fatalf("final batch = %d, want ceiling 1024", live.BatchSize())
	}
}

func TestDropBurstHalvesBatch(t *testing.T) {
	live := tuning.NewBounded(512, 1, 1024, 1)
	c := NewController(live, Policy{Enabled: true})

	changes := feed(t, c, 8, func(i int) Signals {
		return Signals{EventDrops: uint64(i) * 10}
	})

	if len(changes) != 2 {
		t.Fatalf("got %d changes %v, want 2", len(changes), changes)
	}
	for i, ch := range changes {
		if ch.Reason != "drop-burst" {
			t.Fatalf("change %d = %+v, want a drop-burst batch shrink", i, ch)
		}
	}
	if live.BatchSize() != 128 {
		t.Fatalf("final batch = %d, want 512/2/2 = 128", live.BatchSize())
	}
}

func TestLatencySpikeHalvesBatch(t *testing.T) {
	live := tuning.NewBounded(1024, 1, 1024, 1)
	c := NewController(live, Policy{Enabled: true})

	// 1s of scheduler busy per dispatched task: far over the 250ms spike
	// threshold. Backlog is high too — the spike must outrank growth.
	changes := feed(t, c, 6, func(i int) Signals {
		return Signals{
			QueueDepth:    100000,
			Dispatched:    []uint64{uint64(i) * 10},
			SchedulerBusy: []time.Duration{time.Duration(i) * 10 * time.Second},
		}
	})

	if len(changes) != 1 {
		t.Fatalf("got %d changes %v, want 1", len(changes), changes)
	}
	if ch := changes[0]; ch.From != 1024 || ch.To != 512 || ch.Reason != "latency-spike" {
		t.Fatalf("change = %+v, want batch 1024 -> 512 (latency-spike)", ch)
	}
}

func TestHostStrainJumpsToConservativePoint(t *testing.T) {
	live := tuning.NewBounded(2048, 1, 4096, 6)
	c := NewController(live, Policy{Enabled: true, StrainThreshold: 2048})

	// Strain preempts everything — even the baseline sample moves the batch
	// knob, and only it: the scheduler pool keeps the size it was built with.
	changes := c.Step(Signals{ActiveTasks: 5000})
	want := KnobChange{From: 2048, To: 256, Reason: "host-strain"}
	if len(changes) != 1 || changes[0] != want {
		t.Fatalf("got changes %+v, want exactly %+v", changes, want)
	}
	if live.BatchSize() != 256 || live.Schedulers() != 6 {
		t.Fatalf("operating point = (%d, %d), want (256, 6)",
			live.BatchSize(), live.Schedulers())
	}

	// Exactly at the threshold is NOT strain (strict comparison); with no
	// other signal the knobs hold.
	if got := c.Step(Signals{ActiveTasks: 2048}); len(got) != 0 {
		t.Fatalf("boundary ActiveTasks triggered %v", got)
	}
}

func TestBoundarySignalsNeverOscillate(t *testing.T) {
	live := tuning.NewBounded(64, 1, 1024, 4)
	c := NewController(live, Policy{Enabled: true})

	// Every signal sits exactly on its watermark: backlog == 4*batch,
	// per-task latency == 250ms. Strict comparisons must keep the knob
	// still for the whole stream.
	feed(t, c, 50, func(i int) Signals {
		return Signals{
			QueueDepth:    4 * 64,
			Dispatched:    []uint64{uint64(i) * 4},
			SchedulerBusy: []time.Duration{time.Duration(i) * time.Second},
		}
	})
	if live.Version() != 0 {
		t.Fatalf("boundary stream committed %d knob changes, want 0", live.Version())
	}
}

func TestHysteresisTiming(t *testing.T) {
	live := tuning.NewBounded(64, 1, 4096, 1)
	c := NewController(live, Policy{Enabled: true})

	// Track which sample index each change lands on: patience 2 after a
	// 1-sample baseline puts the first change at index 2, then cooldown 2 +
	// patience 2 spaces the rest 4 samples apart.
	var at []int
	for i := 0; i < 15; i++ {
		if got := c.Step(Signals{StoreDepth: 1 << 20}); len(got) > 0 {
			at = append(at, i)
		}
	}
	want := []int{2, 6, 10, 14}
	if len(at) != len(want) {
		t.Fatalf("changes at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("changes at %v, want %v", at, want)
		}
	}
}

func TestRunLoopSamplesAndStops(t *testing.T) {
	live := tuning.NewBounded(64, 1, 1024, 1)
	c := NewController(live, Policy{Enabled: true, Interval: time.Millisecond})

	tick := make(chan time.Time)
	after := func(time.Duration) <-chan time.Time { return tick }
	var applied []KnobChange
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(stop, after,
			func() Signals { return Signals{StoreDepth: 1 << 20} },
			func(ch []KnobChange) { applied = append(applied, ch...) })
	}()
	for i := 0; i < 7; i++ { // baseline + patience + cooldown + patience
		tick <- time.Time{}
	}
	close(stop)
	<-done
	if len(applied) != 2 {
		t.Fatalf("applied %v, want two growth decisions", applied)
	}
}
