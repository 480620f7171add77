package rts

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/tuning"
)

// TestStoreConcurrentConservation is the multi-scheduler invariant: with N
// pullers work-stealing against M concurrent pushers, every pushed task is
// pulled exactly once — none lost, none duplicated.
func TestStoreConcurrentConservation(t *testing.T) {
	const (
		pushers  = 4
		pullers  = 4
		perPush  = 500
		expected = pushers * perPush
	)
	s := newStore(nil, 8)
	var pushWG sync.WaitGroup
	for p := 0; p < pushers; p++ {
		pushWG.Add(1)
		go func(p int) {
			defer pushWG.Done()
			for i := 0; i < perPush; i += 10 {
				batch := make([]core.TaskDescription, 10)
				for k := range batch {
					batch[k].UID = fmt.Sprintf("p%d-t%04d", p, i+k)
				}
				if err := s.Push(batch); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(p)
	}

	var pulled atomic.Int64
	got := make([][]string, pullers)
	var pullWG sync.WaitGroup
	for c := 0; c < pullers; c++ {
		pullWG.Add(1)
		go func(c int) {
			defer pullWG.Done()
			for {
				batch, ok := s.PullBatch(c, 16)
				if !ok {
					return
				}
				for _, d := range batch {
					got[c] = append(got[c], d.UID)
				}
				pulled.Add(int64(len(batch)))
			}
		}(c)
	}

	pushWG.Wait()
	deadline := time.After(20 * time.Second)
	for pulled.Load() < expected {
		select {
		case <-deadline:
			t.Fatalf("pulled %d of %d tasks", pulled.Load(), expected)
		case <-time.After(time.Millisecond):
		}
	}
	s.Close()
	pullWG.Wait()

	seen := make(map[string]bool, expected)
	for _, uids := range got {
		for _, uid := range uids {
			if seen[uid] {
				t.Fatalf("task %s pulled twice", uid)
			}
			seen[uid] = true
		}
	}
	if len(seen) != expected {
		t.Fatalf("conservation broken: %d unique tasks pulled, want %d", len(seen), expected)
	}
	st := s.stats()
	if st.Pushed != expected || st.Pulled != expected {
		t.Fatalf("stats pushed/pulled = %d/%d, want %d/%d", st.Pushed, st.Pulled, expected, expected)
	}
	if st.Depth != 0 {
		t.Fatalf("store depth = %d after full drain", st.Depth)
	}
}

// TestStoreStealCoverage pins the work-stealing path: a single preferred-
// shard puller must drain batches that landed on other shards, and the
// steals counter must record it.
func TestStoreStealCoverage(t *testing.T) {
	s := newStore(nil, 4)
	const batches = 8
	for i := 0; i < batches; i++ {
		if err := s.Push([]core.TaskDescription{{UID: fmt.Sprintf("t%02d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for s.Depth() > 0 {
		batch, ok := s.PullBatch(0, 64)
		if !ok {
			t.Fatal("store closed unexpectedly")
		}
		total += len(batch)
	}
	if total != batches {
		t.Fatalf("drained %d tasks, want %d", total, batches)
	}
	st := s.stats()
	if st.Steals == 0 {
		t.Fatal("round-robin pushes over 4 shards drained by one preferred-shard puller recorded no steals")
	}
	s.Close()
}

// TestStoreSingleSchedulerFIFO pins the Schedulers=1 contract at the store
// level: a lone scheduler drains a one-shard store, and PullBatch returns its
// tasks in strict push order however the pulls split the batches.
func TestStoreSingleSchedulerFIFO(t *testing.T) {
	s := newStore(nil, 1)
	var want []string
	for i := 0; i < 100; i++ {
		batch := make([]core.TaskDescription, 3)
		for k := range batch {
			uid := fmt.Sprintf("t%05d", i*3+k)
			batch[k].UID = uid
			want = append(want, uid)
		}
		if err := s.Push(batch); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for s.Depth() > 0 {
		// A pull width that does not divide the batch size, so pulls split
		// batches at every offset.
		batch, ok := s.PullBatch(0, 7)
		if !ok {
			t.Fatal("store closed unexpectedly")
		}
		for _, d := range batch {
			got = append(got, d.UID)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("push-order FIFO broken at %d: got %s want %s", i, got[i], want[i])
		}
	}
	s.Close()
}

// TestStoreCloseWhilePulling is the shutdown path: pullers blocked on an
// empty store must all return ok=false once the store closes.
func TestStoreCloseWhilePulling(t *testing.T) {
	s := newStore(nil, 4)
	const blocked = 6
	done := make(chan bool, blocked)
	for i := 0; i < blocked; i++ {
		go func(i int) {
			_, ok := s.PullBatch(i, 8)
			done <- ok
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the pullers block in waitReady
	s.Close()
	timeout := time.After(10 * time.Second)
	for i := 0; i < blocked; i++ {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("puller returned ok=true from a closed empty store")
			}
		case <-timeout:
			t.Fatalf("%d of %d pullers still blocked after Close", blocked-i, blocked)
		}
	}
}

// TestStorePullJournalFailureClosesStore pins the no-swallowed-errors rule
// on the pull path: a journal append that fails must close the store and
// surface through Err, not drop the audit record silently.
func TestStorePullJournalFailureClosesStore(t *testing.T) {
	j, err := journal.Open(t.TempDir()+"/store.journal", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(j, 2)
	if err := s.Push([]core.TaskDescription{{UID: "a"}, {UID: "b"}}); err != nil {
		t.Fatal(err)
	}
	j.Close() // the next journalOp fails
	if _, ok := s.PullBatch(0, 8); ok {
		t.Fatal("pull succeeded although its journal append failed")
	}
	if s.Err() == nil {
		t.Fatal("store closed on journal failure without recording the error")
	}
	if err := s.Push([]core.TaskDescription{{UID: "c"}}); err == nil {
		t.Fatal("push accepted after the store failed")
	}
}

// TestStoreFailureKillsRTS pins the end of the surfacing chain: a store
// that fails while the agent is draining it kills the RTS, so EnTK's
// heartbeat observes the loss and resubmits.
func TestStoreFailureKillsRTS(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	// One task through the pilot proves the scheduler loops are live.
	if err := h.rts.Submit([]core.TaskDescription{sleepTask("warm", time.Second, 1)}); err != nil {
		t.Fatal(err)
	}
	collect(t, h, 1)
	h.rts.store.fail(errors.New("journal: disk gone"))
	deadline := time.After(10 * time.Second)
	for h.rts.Alive() {
		select {
		case <-deadline:
			t.Fatal("RTS still alive after its store failed")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestMultiSchedulerAgentDrains runs the pilot with an explicit scheduler
// pool and checks every task completes, with the dispatch tallies spread
// over the configured loops.
func TestMultiSchedulerAgentDrains(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.QueueShards = 4
		c.Schedulers = 4
	})
	start(t, h)
	const tasks = 200
	for i := 0; i < tasks; i += 20 {
		batch := make([]core.TaskDescription, 20)
		for k := range batch {
			batch[k] = sleepTask(fmt.Sprintf("t%04d", i+k), time.Second, 1)
		}
		if err := h.rts.Submit(batch); err != nil {
			t.Fatal(err)
		}
	}
	results := collect(t, h, tasks)
	for _, res := range results {
		if res.ExitCode != 0 {
			t.Fatalf("task %s failed: %s", res.UID, res.Error)
		}
	}
	st := h.rts.Stats().Store
	if st.Schedulers != 4 {
		t.Fatalf("schedulers = %d, want 4", st.Schedulers)
	}
	var dispatched uint64
	for _, n := range st.SchedulerDispatches {
		dispatched += n
	}
	if dispatched != tasks {
		t.Fatalf("per-scheduler dispatches sum to %d, want %d", dispatched, tasks)
	}
	if st.Pulled != tasks || st.Pushed != tasks {
		t.Fatalf("store pushed/pulled = %d/%d, want %d/%d", st.Pushed, st.Pulled, tasks, tasks)
	}
}

// TestSingleSchedulerDispatchOrder pins the acceptance contract end to end:
// with Schedulers=1 (and a one-core pilot serializing execution) tasks
// complete in exact submission order.
func TestSingleSchedulerDispatchOrder(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Resource.Cores = 1
		c.QueueShards = 8
		c.Schedulers = 1
	})
	start(t, h)
	const tasks = 50
	var want []string
	for i := 0; i < tasks; i += 5 {
		batch := make([]core.TaskDescription, 5)
		for k := range batch {
			uid := fmt.Sprintf("t%04d", i+k)
			batch[k] = sleepTask(uid, time.Second, 1)
			want = append(want, uid)
		}
		if err := h.rts.Submit(batch); err != nil {
			t.Fatal(err)
		}
	}
	results := collect(t, h, tasks)
	for i, res := range results {
		if res.UID != want[i] {
			t.Fatalf("completion %d = %s, want %s (strict FIFO broken)", i, res.UID, want[i])
		}
	}
}

// TestStoreHasAShardPerScheduler pins how Start sizes the task store: one
// shard per scheduler loop it spawns, capped at QueueShards — so a lone
// scheduler drains a one-shard store, and no shard is reachable only by
// stealing. An autotune ceiling sizes the store like a fixed pool does.
func TestStoreHasAShardPerScheduler(t *testing.T) {
	for _, tc := range []struct {
		name               string
		shards, schedulers int
		live               *tuning.Live
		want               int
	}{
		{name: "one-scheduler", shards: 8, schedulers: 1, want: 1},
		{name: "two-schedulers", shards: 8, schedulers: 2, want: 2},
		{name: "default-schedulers", shards: 2, want: min(runtime.GOMAXPROCS(0), 2)},
		{name: "autotune-ceiling", shards: 8, live: tuning.NewBounded(256, 1, 256, 2, 1, 16), want: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, func(c *Config) {
				c.QueueShards = tc.shards
				c.Schedulers = tc.schedulers
				c.Live = tc.live
			})
			start(t, h)
			if got := h.rts.Stats().Store.Shards; got != tc.want {
				t.Fatalf("store shards = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestStagerPoolDeterministicMakespan pins the staging-pool semantics the
// per-goroutine watermark bug broke: K modelled stagers overlap at most K
// stagings in virtual time, deterministically, regardless of which executor
// books which request. Stagers=1 is RP's strictly serialized default.
func TestStagerPoolDeterministicMakespan(t *testing.T) {
	base := time.Unix(1000, 0)
	d := 10 * time.Second

	serial := newStagerPool(1)
	for i := 1; i <= 4; i++ {
		end := serial.grant(base, d)
		if want := base.Add(time.Duration(i) * d); !end.Equal(want) {
			t.Fatalf("serial grant %d ends %v, want %v", i, end, want)
		}
	}

	pool := newStagerPool(2)
	var ends []time.Time
	for i := 0; i < 4; i++ {
		ends = append(ends, pool.grant(base, d))
	}
	// Two stagers: requests pair up — 2 finish after d, 2 after 2d.
	want := []time.Time{base.Add(d), base.Add(d), base.Add(2 * d), base.Add(2 * d)}
	for i := range want {
		if !ends[i].Equal(want[i]) {
			t.Fatalf("pool grant %d ends %v, want %v", i, ends[i], want[i])
		}
	}

	// A request arriving after the backlog cleared starts immediately.
	late := pool.grant(base.Add(3*d), d)
	if want := base.Add(4 * d); !late.Equal(want) {
		t.Fatalf("late grant ends %v, want %v", late, want)
	}
}
