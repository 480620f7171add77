package entk

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// A management-bound workload under a tight starting batch must trip the
// queue-pressure rule: the controller grows the batch knob live, every
// decision lands on the event stream as an EventKnob, and the final
// snapshot carries the changed operating point.
func TestAutotuneStagesLiveKnobChanges(t *testing.T) {
	am, err := NewAppManager(AppConfig{
		// Generous walltime: at the starting per-message batch the RTS
		// model's per-submit costs dominate, and the pilot must survive
		// until the controller has grown the batch out of that regime.
		Resource:  Resource{Name: "supermic", Cores: 4, Walltime: 24 * time.Hour},
		TimeScale: 20 * time.Microsecond,
		HostName:  "null",
		Tuning: Tuning{
			BatchSize: 1, // the worst static point: per-message batching
			Autotune: Autotune{
				Enabled:  true,
				Interval: 200 * time.Millisecond,
				MinBatch: 1,
				MaxBatch: 256,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(smallApp(600, 20*time.Second)); err != nil {
		t.Fatal(err)
	}
	sub := am.Subscribe(EventFilter{Kinds: []EventKind{EventKnob}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	run, err := am.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := run.Snapshot()
	if snap.TasksDone != 600 {
		t.Fatalf("%d/600 tasks done", snap.TasksDone)
	}
	if snap.KnobChanges == 0 {
		t.Fatal("controller made no knob changes under sustained pressure")
	}
	// The controller keeps steering while the last stage drains, and a few
	// latency spikes there walk the batch back down, as far as the starting
	// 1 in about one run of a hundred. So growth is read off the decisions,
	// and the snapshot is held to the last of them.
	var knobEvents int
	peak, last := 1, 1
	for ev := range sub.C() {
		if ev.Kind != EventKnob {
			t.Fatalf("subscription leaked a %s event", ev.Kind)
		}
		if ev.Name != "batch" {
			t.Fatalf("knob event names %q, want batch, the only live knob", ev.Name)
		}
		if !strings.HasPrefix(ev.UID, "autotune/") {
			t.Fatalf("knob event UID %q, want autotune/<reason>", ev.UID)
		}
		knobEvents++
		if last, err = strconv.Atoi(ev.To); err != nil {
			t.Fatalf("batch knob event To %q: %v", ev.To, err)
		}
		peak = max(peak, last)
	}
	if uint64(knobEvents) != snap.KnobChanges {
		t.Fatalf("%d knob events streamed, snapshot counts %d changes", knobEvents, snap.KnobChanges)
	}
	if peak <= 1 {
		t.Fatal("the controller never grew the batch beyond the starting 1")
	}
	if snap.LiveBatchSize != last {
		t.Fatalf("live batch = %d, but the controller last set it to %d", snap.LiveBatchSize, last)
	}
}

// With Autotune off, the knob handle has collapsed bounds: the snapshot
// reports the static operating point and zero changes, and no knob events
// exist to subscribe to.
func TestAutotuneDisabledKnobsNeverMove(t *testing.T) {
	am, _, run := startSmallApp(t, 8, 5*time.Second)
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := run.Snapshot()
	if snap.KnobChanges != 0 {
		t.Fatalf("KnobChanges = %d with autotune off", snap.KnobChanges)
	}
	if snap.LiveBatchSize != 1024 {
		t.Fatalf("live batch = %d, want the static default 1024", snap.LiveBatchSize)
	}
	live := am.Core().LiveTuning()
	if _, _, changed := live.SetBatchSize(1); changed {
		t.Fatal("collapsed-bounds handle accepted a change")
	}
}

// Knob mutations racing a live run: external writers hammer the batch knob
// through the core's handle while the workload executes. Run under -race
// (make test, and repeated in CI), this drives the hot-path atomic reads
// concurrently with the controller's own steering.
func TestLiveKnobMutationDuringRunRace(t *testing.T) {
	am, err := NewAppManager(AppConfig{
		Resource:  Resource{Name: "supermic", Cores: 8, Walltime: 24 * time.Hour},
		TimeScale: 20 * time.Microsecond,
		HostName:  "null",
		Tuning: Tuning{
			BatchSize:        16,
			SchedulerWorkers: 4,
			Autotune: Autotune{
				Enabled:  true,
				Interval: 100 * time.Millisecond,
				MinBatch: 1,
				MaxBatch: 512,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(smallApp(300, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	run, err := am.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	live := am.Core().LiveTuning()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				live.SetBatchSize(1 << uint((seed+i)%10))
				// A set never blocks, so without a yield three writers
				// hold every P of a small machine and the run's virtual
				// clock outruns the pilot's walltime.
				runtime.Gosched()
			}
		}(w)
	}
	err = run.Wait()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	snap := run.Snapshot()
	if snap.TasksDone != 300 {
		t.Fatalf("%d/300 tasks done under knob churn", snap.TasksDone)
	}
	if b := live.BatchSize(); b < 1 || b > 512 {
		t.Fatalf("batch %d escaped its bounds", b)
	}
	if s := live.Schedulers(); s != 4 {
		t.Fatalf("schedulers = %d, want the fixed pool of 4", s)
	}
}

// The new per-knob bounds checks report typed *KnobError values.
func TestTuningKnobErrors(t *testing.T) {
	cases := []struct {
		name string
		tun  Tuning
		knob string
	}{
		{"negative batch", Tuning{BatchSize: -5}, "BatchSize"},
		{"schedulers beyond shard capacity", Tuning{QueueShards: 2, SchedulerWorkers: 17}, "SchedulerWorkers"},
		{"negative autotune interval", Tuning{Autotune: Autotune{Interval: -time.Second}}, "Autotune.Interval"},
		{"negative autotune min batch", Tuning{Autotune: Autotune{MinBatch: -1}}, "Autotune.MinBatch"},
		{"autotune max below min", Tuning{Autotune: Autotune{MinBatch: 64, MaxBatch: 8}}, "Autotune.MaxBatch"},
	}
	for _, c := range cases {
		err := c.tun.Validate()
		var ke *KnobError
		if !errors.As(err, &ke) {
			t.Errorf("%s: got %v, want a *KnobError", c.name, err)
			continue
		}
		if ke.Knob != c.knob {
			t.Errorf("%s: error names knob %q, want %q", c.name, ke.Knob, c.knob)
		}
		if !strings.Contains(err.Error(), c.knob) {
			t.Errorf("%s: message %q does not mention %q", c.name, err, c.knob)
		}
	}
	// The scheduler bound scales with the shard count: 16 loops over 2
	// shards is exactly the 8-per-shard limit, so it is legal.
	if err := (Tuning{QueueShards: 2, SchedulerWorkers: 16}).Validate(); err != nil {
		t.Fatalf("16 schedulers over 2 shards rejected: %v", err)
	}
	// A zero Autotune block stays the default sentinel.
	if err := (Tuning{Autotune: Autotune{Enabled: true}}).Validate(); err != nil {
		t.Fatalf("enabled autotune with default bounds rejected: %v", err)
	}
}
