package main

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/entk"
)

// wiring is what the hand-wired stack and the shipped constructor must
// agree on: the run's outcome, the resolved knobs, and the deterministic
// part of the broker traffic. The done, states and sync-ack queues are left
// out of the traffic comparison because their message counts depend on how
// the callback loop happened to coalesce completions, run to run, on either
// stack.
type wiring struct {
	TasksTotal, TasksDone, TaskAttempts int
	Tasks, Stages, Pipelines            map[string]int
	LiveBatchSize, LiveSchedulers       int
	StoreShards, StoreSchedulers        int
	QueueShards                         map[string]int
	PendingPublished, PendingBatches    uint64
}

func wiringOf(t *testing.T, r *rig, a *app) wiring {
	t.Helper()
	res := measure(r, a, time.Now(), nil, "wiring", false)
	if res.err != nil {
		t.Fatal(res.err)
	}
	p, c := res.counters.prog, res.counters
	w := wiring{
		TasksTotal: p.TasksTotal, TasksDone: p.TasksDone, TaskAttempts: p.TaskAttempts,
		Tasks: p.Tasks, Stages: p.Stages, Pipelines: p.Pipelines,
		LiveBatchSize: p.LiveBatchSize, LiveSchedulers: p.LiveSchedulers,
		StoreShards: p.Store.Shards, StoreSchedulers: p.Store.Schedulers,
		QueueShards:      map[string]int{},
		PendingPublished: c.watch.queues["pending"].Published,
		PendingBatches:   c.watch.queues["pending"].PublishBatches,
	}
	for name, q := range c.watch.queues {
		w.QueueShards[name] = q.Shards
	}
	if c.watch.residue != "" {
		t.Errorf("broker not drained at the last PostExec: %s", c.watch.residue)
	}
	return w
}

// TestStackMatchesShippedWiring stops the harness drifting from
// entk.NewAppManager: on a 2×2×4 app both must finish with identical
// Progress counts, knob values, queue topology and pending-queue traffic.
func TestStackMatchesShippedWiring(t *testing.T) {
	sh := shape{pipelines: 2, stages: 2, tasks: 4, cores: 16}

	a := buildApp(sh, "wiring")
	_, r, err := stackRig(a, stackConfig{cores: sh.cores})
	if err != nil {
		t.Fatal(err)
	}
	got := wiringOf(t, r, a)

	b := buildApp(sh, "wiring")
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource:  entk.Resource{Name: resourceName, Cores: sh.cores, Walltime: walltime},
		TimeScale: timeScale,
		HostName:  "null",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(b.pipes...); err != nil {
		t.Fatal(err)
	}
	want := wiringOf(t, &rig{core: am.Core(), start: func(ctx context.Context) (handle, error) {
		return am.Start(ctx)
	}}, b)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("hand-wired stack diverges from entk.NewAppManager:\n stack %+v\n entk  %+v", got, want)
	}
	if got.TasksDone != sh.n() || got.TaskAttempts != sh.n() {
		t.Errorf("stack finished %d/%d tasks in %d attempts", got.TasksDone, sh.n(), got.TaskAttempts)
	}
	var queues []string
	for q := range got.QueueShards {
		queues = append(queues, q)
	}
	sort.Strings(queues)
	if len(queues) != 9 {
		t.Errorf("stack declared queues %v, want the 9 of Fig 2", queues)
	}
}
