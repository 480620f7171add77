package core

import (
	"testing"
	"time"
)

// TestCancelBetweenParts cancels a streamed stage's pipeline between the
// stage's first and second part. The stage ends CANCELED once, the stream
// stops at that boundary, and no task of a later part reaches the RTS: each
// goes from INITIAL straight to CANCELED.
func TestCancelBetweenParts(t *testing.T) {
	const chunk, tasks = 4, 64 // parts of 4, 4, 8, 16 and 32 tasks
	am, rts := testApp(t, Config{EmgrBatch: chunk})
	pipe := buildApp(1, 1, tasks, time.Second)[0]
	stage := pipe.Stages()[0]
	first := map[string]bool{}
	for _, task := range stage.Tasks()[:chunk] {
		first[task.UID] = true
	}
	if err := am.AddPipelines(pipe); err != nil {
		t.Fatal(err)
	}
	boundaries := 0
	am.partHook = func() {
		if boundaries++; boundaries == 1 {
			if err := am.cancelPipeline(pipe); err != nil {
				t.Errorf("CancelPipeline: %v", err)
			}
		}
	}
	sub := am.Subscribe(EventFilter{Kinds: []EventKind{EventStage, EventTask}, Buffer: 4 * tasks})
	var canceled int
	later := map[string][]string{} // a later part's task → the states it was committed to
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.C() {
			switch {
			case ev.Kind == EventStage && ev.To == string(StageCanceled):
				canceled++
			case ev.Kind == EventTask && !first[ev.UID]:
				later[ev.UID] = append(later[ev.UID], ev.To)
			}
		}
	}()
	if err := runApp(t, am); err != nil {
		t.Fatalf("run errored: %v", err)
	}
	<-done
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d events", sub.Dropped())
	}
	if boundaries != 1 {
		t.Fatalf("the stream went on past %d part boundaries, want 1", boundaries)
	}
	if canceled != 1 || stage.State() != StageCanceled || pipe.State() != PipelineCanceled {
		t.Fatalf("stage CANCELED %d times, now %s; pipeline %s", canceled, stage.State(), pipe.State())
	}
	rts.mu.Lock()
	accepted := append([]string(nil), rts.accepted...)
	rts.mu.Unlock()
	for _, uid := range accepted {
		if !first[uid] {
			t.Fatalf("task %s of a later part reached the RTS", uid)
		}
	}
	if len(later) != tasks-chunk {
		t.Fatalf("%d of the later parts' %d tasks were committed", len(later), tasks-chunk)
	}
	for uid, states := range later {
		if len(states) != 1 || states[0] != string(TaskCanceled) {
			t.Fatalf("task %s of a later part went through %v, want only CANCELED", uid, states)
		}
	}
	checkCounters(t, am, "after the run")
	checkStagesAgree(t, am, "after the run")
}
