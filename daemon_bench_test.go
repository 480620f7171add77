package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/entk"
	"repro/internal/appjson"
	"repro/internal/daemon"
)

// benchApp is the application each arm of BenchmarkDaemonMultiRun executes:
// 16 one-core tasks on a 4-core claim.
var benchApp = []byte(`{"resource":{"name":"supermic","cores":4,"walltime_s":3600},"pipelines":[{"name":"p","stages":[{"name":"s0","tasks":[{"name":"t","executable":"sleep","duration_s":5,"cores":1,"copies":16}]}]}]}`)

// BenchmarkDaemonMultiRun compares the two hosting modes on K identical
// applications: K concurrent runs multiplexed by one entkd daemon over a
// shared pilot pool, versus K sequential in-process runs each paying full
// infrastructure setup and teardown. The daemon arm amortizes the pilot
// across the batch (every run, hosted or not, owns its broker); the
// in-process arm is the embedded-mode baseline.
func BenchmarkDaemonMultiRun(b *testing.B) {
	const runs = 4
	b.Run("daemon-concurrent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := daemon.New(daemon.Config{
				Resource:  "supermic",
				Cores:     4 * runs,
				Walltime:  72 * time.Hour,
				TimeScale: time.Microsecond,
				Seed:      1,
			})
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, runs)
			for k := 0; k < runs; k++ {
				id, err := d.Submit(fmt.Sprintf("tenant%d", k), false, benchApp)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func(k int, id string) {
					defer wg.Done()
					errs[k] = d.Wait(context.Background(), id)
				}(k, id)
			}
			wg.Wait()
			d.Stop()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("inprocess-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < runs; k++ {
				desc, err := appjson.Parse(benchApp)
				if err != nil {
					b.Fatal(err)
				}
				pipes, _, err := desc.Build()
				if err != nil {
					b.Fatal(err)
				}
				am, err := entk.NewAppManager(entk.AppConfig{
					Resource: entk.Resource{
						Name:  desc.Resource.Name,
						Cores: desc.Resource.Cores,
						// The daemon arm's pilot walltime, not the application's
						// hour: at this TimeScale an hour is 3.6 ms of wall, and
						// a slow phase outlived the pilot ("RTS failed 1 times").
						Walltime: 72 * time.Hour,
					},
					TimeScale: time.Microsecond,
					Seed:      1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := am.AddPipelines(pipes...); err != nil {
					b.Fatal(err)
				}
				if err := am.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
