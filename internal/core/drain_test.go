package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/msgcodec"
)

// uidsOf lists the UIDs of a drained batch, in order.
func uidsOf(results []TaskResult) []string {
	uids := make([]string, len(results))
	for i, r := range results {
		uids[i] = r.UID
	}
	return uids
}

// TestDrainCompletions pins the completion drain's contract over a plain
// channel: it blocks for the first result, returns everything already queued
// in one call and in send order, stops at completionBatch, reports a closed
// channel as an empty batch, and reuses the caller's buffer.
func TestDrainCompletions(t *testing.T) {
	fill := func(ch chan TaskResult, n int) (want []string) {
		for i := 0; i < n; i++ {
			uid := fmt.Sprintf("task.%04d", i)
			ch <- TaskResult{UID: uid}
			want = append(want, uid)
		}
		return want
	}

	t.Run("blocks for the first result", func(t *testing.T) {
		ch := make(chan TaskResult)
		got := make(chan []TaskResult, 1)
		go func() { got <- DrainCompletions(ch, nil) }()
		select {
		case batch := <-got:
			t.Fatalf("returned %v with nothing sent", uidsOf(batch))
		case <-time.After(20 * time.Millisecond):
		}
		ch <- TaskResult{UID: "task.first"}
		if batch := <-got; !slices.Equal(uidsOf(batch), []string{"task.first"}) {
			t.Fatalf("drained %v, want the one result sent", uidsOf(batch))
		}
	})

	t.Run("queued results come back together in send order", func(t *testing.T) {
		ch := make(chan TaskResult, 16)
		want := fill(ch, 8)
		if got := uidsOf(DrainCompletions(ch, nil)); !slices.Equal(got, want) {
			t.Fatalf("drained %v, want %v", got, want)
		}
	})

	t.Run("cap honoured", func(t *testing.T) {
		ch := make(chan TaskResult, 2*completionBatch)
		want := fill(ch, completionBatch+44)
		first := uidsOf(DrainCompletions(ch, nil))
		second := uidsOf(DrainCompletions(ch, nil))
		if len(first) != completionBatch || len(second) != 44 || !slices.Equal(append(first, second...), want) {
			t.Fatalf("drained %d then %d of %d queued, want %d then 44, in order", len(first), len(second), len(want), completionBatch)
		}
	})

	t.Run("closed channel ends the loop", func(t *testing.T) {
		ch := make(chan TaskResult, 4)
		want := fill(ch, 3)
		close(ch)
		var buf []TaskResult
		var got []string
		calls := 0
		for {
			if buf = DrainCompletions(ch, buf); len(buf) == 0 {
				break
			}
			calls++
			got = append(got, uidsOf(buf)...)
		}
		if calls != 1 || !slices.Equal(got, want) {
			t.Fatalf("%d calls drained %v before the close showed, want one call and %v", calls, got, want)
		}
	})

	t.Run("buffer reused", func(t *testing.T) {
		ch := make(chan TaskResult, 8)
		var buf []TaskResult
		drain := func() {
			for i := 0; i < cap(ch); i++ {
				ch <- TaskResult{UID: "task.warm"}
			}
			if buf = DrainCompletions(ch, buf); len(buf) != cap(ch) {
				t.Fatalf("drained %d of %d", len(buf), cap(ch))
			}
		}
		drain() // the first call sizes the buffer
		if allocs := testing.AllocsPerRun(100, drain); allocs != 0 {
			t.Fatalf("a drain into a warm buffer allocates %.1f objects, want 0", allocs)
		}
	})
}

// TestJoinedOutboxes pins a composite's side of the completion contract: each
// member's Outbox delivers on the parent's channel with its own dead flag,
// stop signal and counters, a member's Stop leaves the channel open, and the
// parent's closes it — once — after the members have stopped.
func TestJoinedOutboxes(t *testing.T) {
	var parent, alive, dead Outbox
	parent.Init(4)
	alive.Join(&parent)
	dead.Join(&parent)
	alive.Submitted(5)
	dead.Submitted(2)
	dead.Kill()
	if !alive.Deliver(TaskResult{UID: "task.a"}) || dead.Deliver(TaskResult{UID: "task.d"}) {
		t.Fatal("a live member's result was dropped, or a dead member's delivered")
	}
	var st RTSStats
	dead.Count(&st)
	if st.TasksCompleted != 0 || st.Utilization.TasksInFlight != 2 || dead.InFlight() != 2 {
		t.Fatalf("the dead member counts %+v, in flight %d", st, dead.InFlight())
	}
	// A member blocked on the full shared channel returns when it stops.
	alive.Deliver(TaskResult{UID: "task.b"})
	alive.Deliver(TaskResult{UID: "task.c"})
	alive.Deliver(TaskResult{UID: "task.e"})
	blocked := make(chan bool)
	go func() { blocked <- alive.Deliver(TaskResult{UID: "task.f"}) }()
	time.Sleep(time.Millisecond) // either way, the stopped member drops it
	alive.Stop(func() {})
	if <-blocked {
		t.Fatal("a Deliver over a full channel went out after its member stopped")
	}
	dead.Stop(func() {})
	if alive.InFlight() != 1 || len(parent.Completions()) != 4 {
		t.Fatalf("after the members stopped: in flight %d, %d queued", alive.InFlight(), len(parent.Completions()))
	}
	parent.Stop(func() {})
	parent.Stop(func() {})
	if got := uidsOf(DrainCompletions(parent.Completions(), nil)); !slices.Equal(got, []string{"task.a", "task.b", "task.c", "task.e"}) {
		t.Fatalf("the parent channel carried %v", got)
	}
	if got := DrainCompletions(parent.Completions(), nil); len(got) != 0 {
		t.Fatalf("the parent channel is still open after its Stop: %v", uidsOf(got))
	}
}

// TestJournalOrderWithinStage pins the journal's record order for one fixed
// 1 x 2 x 4 durable run: every entity's state records are a legal walk of
// its transition table, each stage is SCHEDULED before any of its tasks is
// SUBMITTING (the scheduling frame carries the stage's SCHEDULED, so the
// Emgr's frame can no longer overtake it) and DONE only after the last of
// its tasks is.
func TestJournalOrderWithinStage(t *testing.T) {
	dir := t.TempDir()
	am, _ := testApp(t, Config{JournalDir: dir})
	pipes := buildApp(1, 2, 4, 20*time.Second)
	stampUIDs(pipes)
	am.AddPipelines(pipes...) //nolint:errcheck
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}

	type rec struct{ entity, uid, target string }
	var recs []rec
	err := journal.ReplayDir(dir, func(r journal.Record) error {
		if r.Type != "state" {
			return nil
		}
		sr, err := msgcodec.DecodeStateRec(r.Data)
		recs = append(recs, rec{sr.Entity, sr.UID, sr.State})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	legal := func(entity, from, to string) bool {
		switch entity {
		case "task":
			return legalTask(TaskState(from), TaskState(to))
		case "stage":
			return legalStage(StageState(from), StageState(to))
		default:
			return legalPipeline(PipelineState(from), PipelineState(to))
		}
	}
	last := map[string]string{} // uid -> state so far
	at := map[rec]int{}         // record -> its position
	for i, r := range recs {
		from, seen := last[r.uid]
		if !seen {
			from = string(TaskInitial) // every entity kind starts DESCRIBED
		}
		if !legal(r.entity, from, r.target) {
			t.Fatalf("record %d: %s %s goes %s -> %s", i, r.entity, r.uid, from, r.target)
		}
		last[r.uid] = r.target
		at[r] = i
	}
	for _, stage := range pipes[0].Stages() {
		scheduled, okS := at[rec{"stage", stage.UID, string(StageScheduled)}]
		done, okD := at[rec{"stage", stage.UID, string(StageDone)}]
		if !okS || !okD {
			t.Fatalf("stage %s: SCHEDULED journaled %v, DONE journaled %v", stage.UID, okS, okD)
		}
		for _, task := range stage.Tasks() {
			submitting, okT := at[rec{"task", task.UID, string(TaskSubmitting)}]
			taskDone, okTD := at[rec{"task", task.UID, string(TaskDone)}]
			if !okT || !okTD {
				t.Fatalf("task %s: SUBMITTING journaled %v, DONE journaled %v", task.UID, okT, okTD)
			}
			if scheduled > submitting {
				t.Fatalf("stage %s SCHEDULED is record %d, after task %s SUBMITTING at %d", stage.UID, scheduled, task.UID, submitting)
			}
			if done < taskDone {
				t.Fatalf("stage %s DONE is record %d, before task %s DONE at %d", stage.UID, done, task.UID, taskDone)
			}
		}
	}
}
