package repro

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/rts"
)

// footprintApp is the shape of the end-to-end benchmark's daemon-open runs:
// one pipeline, two stages of eight one-core tasks.
var footprintApp = []byte(`{"resource":{"name":"supermic","cores":8,"walltime_s":3600},"pipelines":[{"name":"p","stages":[` +
	`{"name":"s0","tasks":[{"name":"t","executable":"sleep","cores":1,"copies":8}]},` +
	`{"name":"s1","tasks":[{"name":"t","executable":"sleep","cores":1,"copies":8}]}]}]}`)

// TestHostedRunFootprint holds a daemon-hosted run to what its tasks cost.
// A finished run stays listed for RunRetention (an hour), so what it keeps
// alive is what a busy daemon's heap is made of: it must be a summary (it
// was the whole AppManager and lease, 55 KB per run). And a run's fixed
// scaffolding — queues, consumers, clients, lease, names — must not grow
// back: the ceiling is ~5 % above what a run allocates today (503; it was
// 771 with the scaffolding this bounds).
func TestHostedRunFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		warm, runs       = 20, 500
		keptCeiling      = 2 << 10 // bytes per finished run
		allocsPerRunCeil = 530
	)
	d, err := daemon.New(daemon.Config{
		Resource:  "supermic",
		Cores:     64,
		Walltime:  72 * time.Hour,
		TimeScale: 100 * time.Microsecond, // 26 s of wall before the pilot expires
		Model:     rts.FastModel(),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	run := func() {
		id, err := d.Submit("footprint", false, footprintApp)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	settled := func() (ms runtime.MemStats) {
		runtime.GC()
		runtime.GC() // the second pass frees what the first one's finalizers and sweeps released
		runtime.ReadMemStats(&ms)
		return ms
	}
	for i := 0; i < warm; i++ {
		run()
	}
	before := settled()
	for i := 0; i < runs; i++ {
		run()
	}
	var mid runtime.MemStats
	runtime.ReadMemStats(&mid)
	after := settled()

	if n := len(d.List()); n != warm+runs {
		t.Fatalf("%d runs listed, want every one of %d retained", n, warm+runs)
	}
	kept := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / runs
	objects := (int64(after.HeapObjects) - int64(before.HeapObjects)) / runs
	allocs := (mid.Mallocs - before.Mallocs) / runs
	t.Logf("per finished run: %d B / %d objects kept, %d allocations", kept, objects, allocs)
	if kept > keptCeiling {
		t.Errorf("a finished run keeps %d B alive, want under %d", kept, keptCeiling)
	}
	if allocs > allocsPerRunCeil {
		t.Errorf("a hosted run made %d allocations, want at most %d", allocs, allocsPerRunCeil)
	}
	if n := d.LeakedLeases(); n != 0 {
		t.Errorf("%d leaked leases", n)
	}
}
