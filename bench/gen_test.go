package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"
)

func TestSeedDeterminesInputs(t *testing.T) {
	sh := shape{pipelines: 2, stages: 3, tasks: 4, cores: 8}
	uids := func(seed int64) []string { return buildApp(sh, repTag(seed, 7)).uids }
	if !reflect.DeepEqual(uids(1), uids(1)) {
		t.Error("same seed gave different UIDs")
	}
	if reflect.DeepEqual(uids(1), uids(2)) {
		t.Error("different seeds gave the same UIDs")
	}
	if got := len(uids(1)); got != sh.n() {
		t.Errorf("%d UIDs for %d tasks", got, sh.n())
	}

	plan := func(seed int64) []arrival { return openLoopPlan(seed, 100*time.Millisecond, time.Second) }
	a, b, c := plan(1), plan(1), plan(2)
	if len(a) != int(daemonRate*1.1) {
		t.Fatalf("plan has %d arrivals, want rate × (warm-up + window) = %d", len(a), int(daemonRate*1.1))
	}
	sameSchedule, sameBodies := true, true
	for i := range a {
		if a[i].due != b[i].due || !bytes.Equal(a[i].body, b[i].body) || a[i].measured != b[i].measured {
			t.Fatalf("same seed gave a different arrival %d", i)
		}
		sameSchedule = sameSchedule && a[i].due == c[i].due
		sameBodies = sameBodies && bytes.Equal(a[i].body, c[i].body)
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if a[i].measured != (a[i].due >= 100*time.Millisecond) {
			t.Fatalf("arrival %d at %v has measured=%v", i, a[i].due, a[i].measured)
		}
	}
	if sameSchedule || sameBodies {
		t.Error("different seeds gave the same schedule or the same documents")
	}
}

// TestOpenLoopNeverWaitsForRuns stalls every run until the generator has
// sent the whole plan. A generator that waited for a run before sending the
// next would deadlock here (and the test would time out); an open one sends
// everything, charges the stall to each run from its due time, and reports
// offered against achieved rate and its own lag.
func TestOpenLoopNeverWaitsForRuns(t *testing.T) {
	const window = 50 * time.Millisecond
	plan := openLoopPlan(3, 0, window)
	n := len(plan)
	started := make(chan int, n)
	release := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			<-started
		}
		close(release)
	}()
	st := driveOpenLoop(plan, 0, window, func(_ context.Context, i int, _ *arrival) error {
		started <- i
		<-release
		return nil
	})
	if st.runs != n || st.failed != 0 || len(st.latencyMS) != n || len(st.lagMS) != n {
		t.Fatalf("runs %d failed %d latencies %d lags %d, want %d clean runs", st.runs, st.failed, len(st.latencyMS), len(st.lagMS), n)
	}
	// No run could finish before the last one was sent, so each waited at
	// least from its own due time to the last due time.
	last := plan[n-1].due
	for i, l := range st.latencyMS {
		if l < 0 {
			t.Errorf("run %d has negative latency %v ms", i, l)
		}
	}
	if got, floor := percentile(st.latencyMS, 100), ms(last-plan[0].due); got < floor {
		t.Errorf("longest latency %.3f ms, but the first run was stalled at least %.3f ms", got, floor)
	}
	for _, lag := range st.lagMS {
		if lag < 0 {
			t.Errorf("generator sent %.3f ms before a due time", -lag)
		}
	}
	// Everything completed when the last arrival was sent, just inside the
	// window, so the achieved rate is the offered rate or a shade above.
	if r := st.achievedOverOffered(); r < 1 || r > 1.5 {
		t.Errorf("achieved/offered = %v, want just above 1", r)
	}
}
