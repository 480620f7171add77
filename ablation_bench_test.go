package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: broker
// prefetch and consumer parallelism, the Emgr batch size, the number of
// RTS staging workers (the paper explicitly notes "multiple staging workers
// can be used to parallelize data staging"), and the host strain model.
// Run with: go test -bench=Ablation -benchmem

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/entk"
	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/hostmodel"
	"repro/internal/hpc"
	"repro/internal/rts"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// BenchmarkAblationBrokerPrefetch measures delivery throughput as a
// function of the consumer prefetch window.
func BenchmarkAblationBrokerPrefetch(b *testing.B) {
	for _, prefetch := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("prefetch-%d", prefetch), func(b *testing.B) {
			br := broker.New(broker.Options{})
			defer br.Close()
			br.DeclareQueue("q", broker.QueueOptions{})
			cons, err := br.Consume("q", prefetch)
			if err != nil {
				b.Fatal(err)
			}
			body := []byte(`{"uid":"task.1"}`)
			var done sync.WaitGroup
			done.Add(1)
			var received int64
			go func() {
				defer done.Done()
				for d := range cons.Deliveries() {
					d.Ack()
					if atomic.AddInt64(&received, 1) == int64(b.N) {
						return
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.Publish("q", body) //nolint:errcheck
			}
			done.Wait()
		})
	}
}

// ablationPipelineMsgs is how many messages each iteration of the
// multi-consumer ablation moves end to end.
const ablationPipelineMsgs = 8192

// BenchmarkAblationBrokerConsumers measures aggregate throughput with 1, 2,
// 4 and 8 consumers on one queue (the Fig 6 tuning axis), comparing the
// single-lock ready ring (shards-1) against the sharded configuration
// (shards-8). Each iteration streams a fixed message volume through the
// batched hot path the workflow layers use — PublishBatch in, pull-mode
// ReceiveBatch/AckBatch out — so the number is consumer-side queue cost,
// not producer or memory noise.
func BenchmarkAblationBrokerConsumers(b *testing.B) {
	for _, consumers := range []int{1, 2, 4, 8} {
		for _, cfg := range []struct {
			label  string
			shards int
		}{{"shards-1", 1}, {"shards-8", 8}} {
			b.Run(fmt.Sprintf("consumers-%d/%s", consumers, cfg.label), func(b *testing.B) {
				const pubBatch = 256
				br := broker.New(broker.Options{})
				defer br.Close()
				br.DeclareQueue("q", broker.QueueOptions{Shards: cfg.shards})
				bodies := make([][]byte, pubBatch)
				for i := range bodies {
					bodies[i] = []byte(`{"uid":"task.1"}`)
				}
				conss := make([]*broker.Consumer, consumers)
				counts := make(chan int, 64)
				var wg sync.WaitGroup
				for c := range conss {
					cons, err := br.ConsumeBatch("q", 2*pubBatch)
					if err != nil {
						b.Fatal(err)
					}
					conss[c] = cons
					wg.Add(1)
					go func(cons *broker.Consumer) {
						defer wg.Done()
						for {
							ds, err := cons.ReceiveBatch(pubBatch)
							if err != nil {
								return // cancelled: benchmark over
							}
							broker.AckBatch(ds) //nolint:errcheck
							counts <- len(ds)
						}
					}(cons)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// One iteration = one fixed message volume through the
					// queue; the producer stays one iteration ahead at most,
					// so the backlog (and allocator noise) stays bounded.
					for k := 0; k < ablationPipelineMsgs/pubBatch; k++ {
						br.PublishBatch("q", bodies) //nolint:errcheck
					}
					for got := 0; got < ablationPipelineMsgs; {
						got += <-counts
					}
				}
				b.StopTimer()
				for _, cons := range conss {
					cons.Cancel()
				}
				wg.Wait()
				b.ReportMetric(float64(ablationPipelineMsgs*b.N)/b.Elapsed().Seconds(), "msgs/s")
			})
		}
	}
}

// ablationSchedulerTasks is how many tasks each iteration of the
// multi-scheduler ablation pushes through the agent end to end.
const ablationSchedulerTasks = 8192

// BenchmarkAblationSchedulers measures the pilot agent's dispatch
// throughput on a contention-bound pipeline — zero-duration 1-core tasks on
// a wide pilot, so the store drain + placement path is the bottleneck, not
// task execution — with 1, 2 and 8 scheduler loops, QueueShards 8, so a
// task store of one shard per loop. schedulers-1 is the strict-FIFO serial
// agent draining a one-shard store (the paper's Fig 8 dispatch bottleneck);
// schedulers-N is the work-stealing pool. On a
// single-core runner the spread is algorithmic only; the contention relief
// is architectural and shows at GOMAXPROCS > 1 (see ROADMAP.md).
func BenchmarkAblationSchedulers(b *testing.B) {
	for _, scheds := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("schedulers-%d", scheds), func(b *testing.B) {
			const submitBatch = 256
			clock := vclock.NewScaled(time.Nanosecond)
			session := saga.NewSession()
			defer session.Close()
			cluster, err := hpc.NewCluster(hpc.Spec{
				Name: "bench", Nodes: 64, CoresPerNode: 8,
				MaxWalltime: 1000000 * time.Hour,
			}, clock)
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			session.Register(saga.NewClusterAdapter(cluster)) //nolint:errcheck
			r, err := rts.New(rts.Config{
				Resource: core.ResourceDesc{
					Resource: "bench", Cores: 512, Walltime: 999999 * time.Hour,
				},
				Clock:       clock,
				Session:     session,
				Registry:    workload.NewRegistry(),
				Model:       rts.FastModel(),
				QueueShards: 8,
				Schedulers:  scheds,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Start(context.Background()); err != nil {
				b.Fatal(err)
			}
			defer r.Stop() //nolint:errcheck
			descs := make([]core.TaskDescription, submitBatch)
			for i := range descs {
				descs[i] = core.TaskDescription{
					UID: fmt.Sprintf("t%04d", i), Executable: "sleep", Cores: 1,
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One iteration = one fixed task volume submitted in batches
				// and drained to completion, so the number is agent-side
				// dispatch cost under a persistently non-empty store.
				for k := 0; k < ablationSchedulerTasks/submitBatch; k++ {
					if err := r.Submit(descs); err != nil {
						b.Fatal(err)
					}
				}
				for got := 0; got < ablationSchedulerTasks; got++ {
					if _, ok := <-r.Completions(); !ok {
						b.Fatal("completions closed mid-benchmark")
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ablationSchedulerTasks*b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// runEmgrBatchApp executes a 256-task application with the given Emgr batch
// bound and returns the wall time.
func runEmgrBatchApp(b *testing.B, batch int) {
	b.Helper()
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource:  entk.Resource{Name: "comet", Cores: 256, Walltime: 47 * time.Hour},
		TimeScale: 20 * time.Microsecond,
		HostName:  "null",
	})
	if err != nil {
		b.Fatal(err)
	}
	// Reach into the core config through the facade.
	_ = am
	pipe := core.NewPipeline("batch")
	stage := core.NewStage("s")
	for i := 0; i < 256; i++ {
		t := core.NewTask("t")
		t.Executable = "sleep"
		t.Duration = 10 * time.Second
		stage.AddTask(t) //nolint:errcheck
	}
	pipe.AddStage(stage) //nolint:errcheck
	if err := am.AddPipelines(pipe); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationEmgrBatch compares wall time of a 256-task application
// under different Emgr submission batch bounds.
func BenchmarkAblationEmgrBatch(b *testing.B) {
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runEmgrBatchApp(b, batch)
			}
		})
	}
}

// BenchmarkAblationStagers measures the virtual staging makespan of 512
// staged tasks with 1, 2 and 4 staging workers — quantifying the
// parallel-staging trade-off the paper mentions for Fig 8.
func BenchmarkAblationStagers(b *testing.B) {
	for _, stagers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("stagers-%d", stagers), func(b *testing.B) {
			clock := vclock.NewScaled(time.Microsecond)
			fs, err := fsim.New(fsim.OLCFLustre(), clock, 1)
			if err != nil {
				b.Fatal(err)
			}
			files := []fsim.File{
				{Name: "l1", Link: true}, {Name: "l2", Link: true},
				{Name: "l3", Link: true}, {Name: "in", Bytes: 550 * 1024},
			}
			for i := 0; i < b.N; i++ {
				// Simulate the stager-pool serialization in virtual time.
				watermarks := make([]time.Duration, stagers)
				var makespan time.Duration
				for task := 0; task < 512; task++ {
					w := task % stagers
					watermarks[w] += fs.StageDuration(files)
					if watermarks[w] > makespan {
						makespan = watermarks[w]
					}
				}
				b.ReportMetric(makespan.Seconds(), "staging_s")
			}
		})
	}
}

// BenchmarkAblationHostStrain compares the effective per-message cost below
// and above the strain threshold (the Fig 8 management-overhead knee).
func BenchmarkAblationHostStrain(b *testing.B) {
	m, err := hostmodel.Lookup("xsede-vm")
	if err != nil {
		b.Fatal(err)
	}
	for _, tasks := range []int{16, 2048, 4096, 8192} {
		b.Run(fmt.Sprintf("tasks-%d", tasks), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				total += m.EffectiveMsgCost(tasks)
			}
			b.ReportMetric(float64(m.EffectiveMsgCost(tasks).Microseconds()), "cost_us")
			_ = total
		})
	}
}

// BenchmarkAblationTransferProtocols measures the modelled cost of moving a
// paper-scale seismogram (§III-A saves 0.15-1.5 GB per seismogram) through
// each SAGA transfer protocol. The series shows the calibrated trade-off:
// scp-class protocols win on small payloads, Globus Online's parallel
// streams win past its service-negotiation latency (~0.6 GB crossover).
func BenchmarkAblationTransferProtocols(b *testing.B) {
	for _, proto := range saga.Protocols() {
		for _, size := range []int64{150 << 20, 1500 << 20} {
			b.Run(fmt.Sprintf("%s-%dMB", proto, size>>20), func(b *testing.B) {
				clock := vclock.NewScaled(time.Nanosecond)
				ts, err := saga.NewTransferService(clock)
				if err != nil {
					b.Fatal(err)
				}
				var virtual time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := ts.Transfer(saga.TransferRequest{
						Bytes: size, Protocol: proto,
					})
					if err != nil {
						b.Fatal(err)
					}
					virtual += res.Duration
				}
				b.ReportMetric(virtual.Seconds()/float64(b.N), "vsec/transfer")
			})
		}
	}
}

// BenchmarkAblationBackfill compares batch-queue makespan with strict FIFO
// vs backfill scheduling for a pathological mix: alternating wide (full-
// machine) and narrow jobs. FIFO serializes everything behind each wide
// job; backfill slots the narrow jobs into the gaps.
func BenchmarkAblationBackfill(b *testing.B) {
	for _, backfill := range []bool{false, true} {
		name := "fifo"
		if backfill {
			name = "backfill"
		}
		b.Run(name, func(b *testing.B) {
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				clock := vclock.NewScaled(50 * time.Nanosecond)
				c, err := hpc.NewCluster(hpc.Spec{
					Name: "bench", Nodes: 8, CoresPerNode: 1,
					MaxWalltime: 100000 * time.Hour, Backfill: backfill,
				}, clock)
				if err != nil {
					b.Fatal(err)
				}
				start := clock.Now()
				var wg sync.WaitGroup
				for k := 0; k < 12; k++ {
					cores, dur := 1, 400*time.Second
					if k%3 == 0 {
						cores, dur = 8, 100*time.Second // wide blocker
					}
					j, err := c.Submit(hpc.JobDesc{Name: "j", Cores: cores, Walltime: time.Hour})
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func(j *hpc.Job, dur time.Duration) {
						defer wg.Done()
						<-j.Active()
						clock.Sleep(dur)
						c.Complete(j)
					}(j, dur)
				}
				wg.Wait()
				virtual += clock.Now().Sub(start)
				c.Close()
			}
			b.ReportMetric(virtual.Seconds()/float64(b.N), "vsec/makespan")
		})
	}
}
