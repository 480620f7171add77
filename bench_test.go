// Package repro's root benchmark harness: micro-benchmarks of the substrates
// the paper's evaluation is built on, and whole-engine benchmarks of the
// paths the regression gate tracks. The paper's figures are regenerated by
// cmd/entk-experiments, and each has a quick test in internal/experiments.
package repro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/entk"
	"repro/internal/anen"
	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/rts"
	"repro/internal/saga"
	"repro/internal/seismic"
	"repro/internal/statedb"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// ---- Substrate micro-benchmarks ----------------------------------------

// BenchmarkBrokerPublishConsume measures raw broker throughput: the
// operation Fig 6 aggregates a million of.
func BenchmarkBrokerPublishConsume(b *testing.B) {
	br := broker.New(broker.Options{})
	defer br.Close()
	br.DeclareQueue("q", broker.QueueOptions{})
	body := []byte(`{"uid":"task.000001","executable":"sleep","cores":1}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish("q", body); err != nil {
			b.Fatal(err)
		}
		d, ok, err := br.Get("q")
		if err != nil || !ok {
			b.Fatal("get failed")
		}
		d.Ack()
	}
}

// benchBatchSize is the batch width used by the single-vs-batched broker
// comparison (the Fig 6 follow-up: same message volume, N-fold fewer
// lock/journal round-trips on the batched path).
const benchBatchSize = 64

// benchPipelineMsgs is how many messages each iteration of the pipeline
// benchmarks moves end to end.
const benchPipelineMsgs = 8192

// BenchmarkBrokerSingleMsg64 streams messages through a concurrent
// 1-producer/1-consumer pipeline (the Fig 6 pcq-1 shape) on the
// per-message path: every publish, delivery and ack is its own contended
// broker round-trip. Its msgs/s metric is directly comparable with
// BenchmarkBrokerBatch64, which moves the same volume in batches of 64.
func BenchmarkBrokerSingleMsg64(b *testing.B) {
	br := broker.New(broker.Options{})
	defer br.Close()
	br.DeclareQueue("q", broker.QueueOptions{})
	body := []byte(`{"uid":"task.000001","executable":"sleep","cores":1}`)
	c, err := br.Consume("q", 4*benchBatchSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		go func() {
			for k := 0; k < benchPipelineMsgs; k++ {
				br.Publish("q", body) //nolint:errcheck
			}
		}()
		for received := 0; received < benchPipelineMsgs; received++ {
			d, ok := <-c.Deliveries()
			if !ok {
				b.Fatal("consumer closed")
			}
			d.Ack()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchPipelineMsgs*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkBrokerBatch64 is the batched counterpart of
// BenchmarkBrokerSingleMsg64: the same concurrent pipeline and message
// volume, but the broker is traversed once per 64-message batch —
// PublishBatch on the way in, ReceiveBatch/AckBatch on the way out.
func BenchmarkBrokerBatch64(b *testing.B) {
	br := broker.New(broker.Options{})
	defer br.Close()
	br.DeclareQueue("q", broker.QueueOptions{})
	body := []byte(`{"uid":"task.000001","executable":"sleep","cores":1}`)
	bodies := make([][]byte, benchBatchSize)
	for i := range bodies {
		bodies[i] = body
	}
	c, err := br.ConsumeBatch("q", 4*benchBatchSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		go func() {
			for k := 0; k < benchPipelineMsgs/benchBatchSize; k++ {
				br.PublishBatch("q", bodies) //nolint:errcheck
			}
		}()
		for received := 0; received < benchPipelineMsgs; {
			ds, err := c.ReceiveBatch(benchBatchSize)
			if err != nil {
				b.Fatal(err)
			}
			if err := broker.AckBatch(ds); err != nil {
				b.Fatal(err)
			}
			received += len(ds)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchPipelineMsgs*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkEventStreamOverhead measures what the run-control event stream
// costs the engine: the same batched end-to-end pipeline (null host, sleep
// tasks, broker batch 64) executed with no subscriber attached (events-off:
// the per-transition cost is one atomic load) and with one active
// subscriber draining the full task/stage/pipeline stream (events-on). The
// msgs/s metric counts committed task transitions per second; the
// acceptance bar is events-on within 10% of events-off.
func BenchmarkEventStreamOverhead(b *testing.B) {
	const tasks = 1024
	const transitionsPerTask = 6 // SCHEDULING..DONE
	for _, mode := range []struct {
		name      string
		subscribe bool
	}{{"events-off", false}, {"events-on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// At 2 µs per virtual second, real Go processing inflates
				// virtual time ~5·10⁵x, so the pilot gets the CI's maximum
				// walltime (72 h ≈ 518 ms of wall budget) to not die mid-run.
				am, err := entk.NewAppManager(entk.AppConfig{
					Resource:  entk.Resource{Name: "supermic", Cores: tasks, Walltime: 72 * time.Hour},
					TimeScale: 2 * time.Microsecond,
					HostName:  "null",
					Tuning:    entk.Tuning{BatchSize: benchBatchSize},
				})
				if err != nil {
					b.Fatal(err)
				}
				pipe := entk.NewPipeline("bench")
				stage := entk.NewStage("s")
				for k := 0; k < tasks; k++ {
					t := entk.NewTask(fmt.Sprintf("t%04d", k))
					t.Executable = "sleep"
					t.Duration = time.Second
					stage.AddTask(t) //nolint:errcheck
				}
				pipe.AddStage(stage) //nolint:errcheck
				if err := am.AddPipelines(pipe); err != nil {
					b.Fatal(err)
				}
				var consumed atomic.Int64
				var sub *entk.EventSub
				if mode.subscribe {
					// A ring sized for the full stream: the benchmark
					// measures engine-side overhead with a keeping-up
					// subscriber, not the drop policy (drops would make the
					// two modes incomparable).
					sub = am.Subscribe(entk.EventFilter{Buffer: 8192})
					go func() {
						for range sub.C() {
							consumed.Add(1)
						}
					}()
				}
				if err := am.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				if sub != nil {
					if sub.Dropped() > 0 {
						b.Fatalf("active subscriber dropped %d events", sub.Dropped())
					}
					sub.Close()
				}
				if pipe.State() != entk.PipelineDone {
					b.Fatalf("pipeline state %s", pipe.State())
				}
			}
			b.ReportMetric(float64(tasks*transitionsPerTask*b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// encodeSink defeats dead-code elimination in the codec benchmarks.
var encodeSink []byte

// benchUIDs is a realistic 64-task pending-message payload.
func benchUIDs() []string {
	uids := make([]string, benchBatchSize)
	for i := range uids {
		uids[i] = fmt.Sprintf("task.%06d", i+1)
	}
	return uids
}

// BenchmarkPendingMsgEncode measures the pooled pending-message encoder on
// the wfprocessor batch-publish path (one 64-UID chunk per op).
func BenchmarkPendingMsgEncode(b *testing.B) {
	uids := benchUIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeSink = msgcodec.FormatBinary.EncodeTaskUIDs(uids)
	}
}

// assertAllocs pins an encoder's allocation contract: at most want objects
// per encoded message, however many entities the message carries. Skipped
// under the race detector, whose instrumentation perturbs allocation
// accounting.
func assertAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	allocs := testing.AllocsPerRun(200, fn)
	if allocs > want {
		t.Fatalf("%s allocates %.1f objects per message, want <= %.0f", name, allocs, want)
	}
}

// TestPendingMsgEncodeAllocs asserts the pooled encoder's allocation
// contract: one exact-size body per message, nothing per task UID.
func TestPendingMsgEncodeAllocs(t *testing.T) {
	uids := benchUIDs()
	assertAllocs(t, "EncodeTaskUIDs(binary)", 1, func() {
		encodeSink = msgcodec.FormatBinary.EncodeTaskUIDs(uids)
	})
}

// TestSyncFrameEncodeAllocs asserts the binary sync-frame encoder's
// contract on the scheduleStage shape: one frame carrying a stage
// transition plus two 64-task bulk transitions costs one allocation.
func TestSyncFrameEncodeAllocs(t *testing.T) {
	uids := benchUIDs()
	frame := msgcodec.SyncFrame{Reply: "sync-ack-enq", Seq: 42, Reqs: []msgcodec.SyncRequest{
		{Entity: "stage", UID: "stage.0001", Target: "SCHEDULING"},
		{Entity: "task", UIDs: uids, Target: "SCHEDULING"},
		{Entity: "task", UIDs: uids, Target: "SCHEDULED"},
	}}
	assertAllocs(t, "EncodeSyncFrame(binary)", 1, func() {
		encodeSink, _ = msgcodec.FormatBinary.EncodeSyncFrame(frame)
	})
}

// TestSyncAckEncodeAllocs asserts the binary ack encoder's contract.
func TestSyncAckEncodeAllocs(t *testing.T) {
	ack := msgcodec.SyncAck{Seq: 42, OK: true}
	assertAllocs(t, "EncodeSyncAck(binary)", 1, func() {
		encodeSink, _ = msgcodec.FormatBinary.EncodeSyncAck(ack)
	})
}

// TestTaskResultsEncodeAllocs asserts the binary done-queue encoder's
// contract on a 64-result callback drain.
func TestTaskResultsEncodeAllocs(t *testing.T) {
	results := make([]msgcodec.TaskResult, benchBatchSize)
	started := time.Unix(0, 1e15)
	for i := range results {
		results[i] = msgcodec.TaskResult{
			UID: fmt.Sprintf("task.%06d", i), Started: started,
			Finished: started.Add(time.Second), StagingTime: time.Millisecond,
		}
	}
	assertAllocs(t, "EncodeTaskResults(binary)", 1, func() {
		encodeSink, _ = msgcodec.FormatBinary.EncodeTaskResults(results)
	})
}

// TestFig6TaskEncodeAllocs asserts the Fig 6 task-body encoder's contract.
func TestFig6TaskEncodeAllocs(t *testing.T) {
	task := msgcodec.Fig6Task{
		UID: "task.000001.000002", Executable: "sleep",
		Arguments: []string{"0"}, Cores: 1,
	}
	assertAllocs(t, "EncodeFig6Task(binary)", 1, func() {
		encodeSink = msgcodec.FormatBinary.EncodeFig6Task(&task)
	})
}

// TestStateRecEncodeAllocs asserts the journaled state-record encoder's
// contract (one body per committed transition).
func TestStateRecEncodeAllocs(t *testing.T) {
	assertAllocs(t, "EncodeStateRec(binary)", 1, func() {
		encodeSink = msgcodec.FormatBinary.EncodeStateRec("task", "task.000042", "DONE")
	})
}

// TestStoreRecEncodeAllocs asserts the RTS store audit-record encoder's
// contract on a 64-UID pull batch (one body per journaled store op).
func TestStoreRecEncodeAllocs(t *testing.T) {
	uids := benchUIDs()
	assertAllocs(t, "EncodeStoreRec(binary)", 1, func() {
		encodeSink = msgcodec.FormatBinary.EncodeStoreRec("pull", uids)
	})
}

// TestJournalRecAppendAllocs asserts the journal record framing allocates
// nothing when appending into a caller-owned buffer (the journal's write
// path reuses one scratch buffer under its mutex).
func TestJournalRecAppendAllocs(t *testing.T) {
	data := msgcodec.FormatBinary.EncodeStateRec("task", "task.000042", "DONE")
	buf := make([]byte, 0, 4096)
	assertAllocs(t, "AppendJournalRec", 0, func() {
		buf = msgcodec.AppendJournalRec(buf[:0], 7, "state", data)
	})
}

// BenchmarkSyncTransition measures what a stage costs in synchronizer round
// trips. durable-frame hands a real Synchronizer over a journal directory one
// frame carrying two bulk transitions of 64 tasks, which it validates,
// advances, journals and mirrors before it hands the frame back — the
// durable commit path. Reported as stages/s. wide-stage-1p is the whole
// engine instead of the frames alone: a 1x1x4096 application in messages of
// 64 on a single P, where every done-message ends in a stage-completion
// check — once a rescan of all 4096 tasks, quadratic in the stage's width,
// with no second P to hide it on. Reported as tasks/s.
func BenchmarkSyncTransition(b *testing.B) {
	b.Run("wide-stage-1p", func(b *testing.B) {
		const tasks = 4096
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i := 0; i < b.N; i++ {
			// The pilot gets the CI's maximum walltime for the reason it
			// does in BenchmarkEventStreamOverhead.
			am, err := entk.NewAppManager(entk.AppConfig{
				Resource:  entk.Resource{Name: "supermic", Cores: tasks, Walltime: 72 * time.Hour},
				TimeScale: 2 * time.Microsecond,
				HostName:  "null",
				Tuning:    entk.Tuning{BatchSize: benchBatchSize},
			})
			if err != nil {
				b.Fatal(err)
			}
			pipe, stage := entk.NewPipeline("wide"), entk.NewStage("s")
			for k := 0; k < tasks; k++ {
				t := entk.NewTask("t")
				t.Executable = "sleep"
				t.Duration = time.Second
				stage.AddTask(t) //nolint:errcheck
			}
			pipe.AddStage(stage) //nolint:errcheck
			if err := am.AddPipelines(pipe); err != nil {
				b.Fatal(err)
			}
			if err := am.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(tasks*b.N)/b.Elapsed().Seconds(), "tasks/s")
	})
	b.Run("chain-stage", func(b *testing.B) {
		// The latency-bound shape: 8-task stages that cannot overlap, so a
		// stage costs its sync round trips end to end. The assembly is
		// entk.NewAppManager's with the simulated machine taken out
		// (rts.FastModel, hostmodel.Null) — at any TimeScale a pilot
		// outlives, the CI model's per-task dispatch stagger is a timer per
		// task and the benchmark would time those. Every sync frame is one
		// publish on the states queue; the count is read in the last
		// PostExec, the stage time is the gap between the first and the last.
		const stages, tasks = 256, 8
		clock := vclock.NewScaled(250 * time.Microsecond) // 72 h of walltime = 64.8 s of wall
		machine, err := rts.NewMachine(rts.MachineConfig{Clock: clock, Resources: []core.ResourceDesc{{Resource: "supermic"}}})
		if err != nil {
			b.Fatal(err)
		}
		defer machine.Close()
		var frames uint64
		var span time.Duration
		for i := 0; i < b.N; i++ {
			am, err := core.NewAppManager(core.Config{Clock: clock, Host: hostmodel.Null()})
			if err != nil {
				b.Fatal(err)
			}
			am.SetResource(core.ResourceDesc{Resource: "supermic", Cores: 64, Walltime: 72 * time.Hour})
			am.SetRTSFactory(rts.Factory(rts.Config{
				Clock: clock, Session: machine.Session, Registry: workload.NewRegistry(), Model: rts.FastModel(),
			}))
			pipe := core.NewPipeline("chain")
			var first time.Time
			for s := 0; s < stages; s++ {
				stage := core.NewStage("s")
				for k := 0; k < tasks; k++ {
					t := core.NewTask("t")
					t.Executable = "sleep"
					stage.AddTask(t) //nolint:errcheck
				}
				switch s {
				case 0:
					stage.PostExec = func() error { first = time.Now(); return nil }
				case stages - 1:
					stage.PostExec = func() error {
						span += time.Since(first)
						st, err := am.Broker().Stats(core.QueueStates)
						frames += st.Published
						return err
					}
				}
				pipe.AddStage(stage) //nolint:errcheck
			}
			if err := am.AddPipelines(pipe); err != nil {
				b.Fatal(err)
			}
			run, err := am.Start(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if err := run.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(span.Microseconds())/float64((stages-1)*b.N), "µs/stage")
		b.ReportMetric(float64(frames)/float64(stages*b.N), "frames/stage")
	})
	b.Run("durable-frame", func(b *testing.B) {
		uids := benchUIDs()
		// A running durable manager whose first stage outlasts the
		// benchmark, so nothing but these frames touches the 64 tasks of
		// its second stage. SCHEDULING -> FAILED -> SCHEDULING is the one
		// legal cycle, so every iteration commits 128 transitions.
		am, err := entk.NewAppManager(entk.AppConfig{
			Resource:   entk.Resource{Name: "supermic", Cores: 64, Walltime: 72 * time.Hour},
			TimeScale:  250 * time.Microsecond,
			HostName:   "null",
			JournalDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		p := entk.NewPipeline("sync-bench")
		gate, held := entk.NewStage("gate"), entk.NewStage("held")
		long := entk.NewTask("gate")
		long.UID = "task.gate" // generated UIDs share benchUIDs' format
		long.Executable = "sleep"
		long.Duration = 60 * time.Hour
		gate.AddTask(long) //nolint:errcheck
		for _, uid := range uids {
			t := entk.NewTask(uid)
			t.UID = uid
			t.Executable = "sleep"
			held.AddTask(t) //nolint:errcheck
		}
		p.AddStage(gate) //nolint:errcheck
		p.AddStage(held) //nolint:errcheck
		if err := am.AddPipelines(p); err != nil {
			b.Fatal(err)
		}
		run, err := am.Start(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			run.Cancel("bench: done")
			run.Wait() //nolint:errcheck // the cancellation
		}()
		const reply = "sync-ack-bench"
		br := am.Core().Broker()
		if err := br.DeclareQueue(reply, broker.QueueOptions{Shards: 1}); err != nil {
			b.Fatal(err)
		}
		acks, err := br.ConsumeBatch(reply, 1)
		if err != nil {
			b.Fatal(err)
		}
		tasks := held.Tasks()
		frame := &core.SyncFrame{Reply: reply, Reqs: []core.SyncRequest{
			{Tasks: tasks, Target: "SCHEDULING"},
			{Tasks: tasks, Target: "FAILED"},
		}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := br.PublishValue(core.QueueStates, frame); err != nil {
				b.Fatal(err)
			}
			ds, err := acks.ReceiveBatch(1)
			if err != nil {
				b.Fatal(err)
			}
			ds[0].Ack() //nolint:errcheck
			if frame.Err != nil {
				b.Fatal(frame.Err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "stages/s")
	})
}

// BenchmarkSnapshot measures AppManager.Snapshot on an application of 10^5
// tasks in 100 stages — what -progress, the autotune sampler and entkd's
// List pay per poll. It reads per-stage tallies, so the cost follows the
// stage count, not the task count.
func BenchmarkSnapshot(b *testing.B) {
	const pipelines, stages, tasks = 10, 10, 1000
	am, err := core.NewAppManager(core.Config{Clock: vclock.NewScaled(time.Microsecond)})
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < pipelines; p++ {
		pipe := core.NewPipeline("p")
		for s := 0; s < stages; s++ {
			stage := core.NewStage("s")
			for k := 0; k < tasks; k++ {
				t := core.NewTask("t")
				t.Executable = "sleep"
				stage.AddTask(t) //nolint:errcheck
			}
			pipe.AddStage(stage) //nolint:errcheck
		}
		am.AddPipelines(pipe) //nolint:errcheck
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := am.Snapshot().TasksTotal; got != pipelines*stages*tasks {
			b.Fatalf("snapshot counted %d tasks", got)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/snapshot")
}

// BenchmarkJournalAppend measures the transactional-state write path.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := journal.Open(b.TempDir()+"/bench.journal", journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := msgcodec.FormatBinary.EncodeStateRec("task", "task.000001", "DONE")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.AppendRaw("state", rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures crash-recovery reconstruction: rebuilding the
// final state map from a journal directory, with and without a snapshot.
// records-N reads N state records raw; snapshot-N reads a snapshot at
// watermark plus a short tail over the same record count — the gap between
// the two is what the snapshot layer buys at restart. Both read the
// directory with core.ReadRunDir, as entk-dump does; resume-N (benchResume)
// calls the real recovery on an N-task application.
func BenchmarkRecovery(b *testing.B) {
	writeDir := func(b *testing.B, n int, snapshotAt int) string {
		b.Helper()
		dir := b.TempDir()
		j, err := journal.OpenDir(dir, journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		db := statedb.New()
		// Each of 2048 tasks takes eight legal steps: one attempt that fails
		// and is rescheduled.
		walk := []core.TaskState{core.TaskScheduling, core.TaskScheduled, core.TaskSubmitting, core.TaskSubmitted,
			core.TaskExecuted, core.TaskFailed, core.TaskScheduling, core.TaskScheduled}
		for i := 0; i < n; i++ {
			uid, state := fmt.Sprintf("task.%06d", i%2048), string(walk[i/2048%len(walk)])
			if _, err := j.AppendRaw("state", msgcodec.FormatBinary.EncodeStateRec("task", uid, state)); err != nil {
				b.Fatal(err)
			}
			if err := db.SaveState("task", uid, state); err != nil {
				b.Fatal(err)
			}
			if snapshotAt > 0 && i == snapshotAt {
				// What the engine does at a snapshot: roll, snapshot at the
				// sealed segment's last record, compact everything it covers.
				wm, err := j.Roll()
				if err != nil {
					b.Fatal(err)
				}
				snap := msgcodec.Snapshot{Watermark: wm, Entries: db.SnapshotEntries()}
				if _, err := statedb.WriteSnapshot(dir, snap, msgcodec.FormatBinary); err != nil {
					b.Fatal(err)
				}
				if _, err := j.Compact(snap.Watermark); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	recover := func(b *testing.B, dir string) int {
		b.Helper()
		rd, err := core.ReadRunDir(dir)
		if err != nil || len(rd.Violations) > 0 {
			b.Fatalf("%v %v", err, rd.Violations)
		}
		return len(rd.Tasks)
	}
	const n = 16384
	b.Run(fmt.Sprintf("records-%d", n), func(b *testing.B) {
		dir := writeDir(b, n, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := recover(b, dir); got != 2048 {
				b.Fatalf("recovered %d entities", got)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run(fmt.Sprintf("snapshot-%d", n), func(b *testing.B) {
		// Snapshot + compaction at ~94% of the stream: recovery loads the
		// snapshot and replays only the tail.
		dir := writeDir(b, n, n-1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := recover(b, dir); got != 2048 {
				b.Fatalf("recovered %d entities", got)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run(fmt.Sprintf("resume-%d", n), func(b *testing.B) { benchResume(b, n/2) })
}

// resumeApp is the durable benchmark workload's shape: one pipeline of two
// stages of `tasks` zero-duration tasks each, with structural UIDs so a
// second manager's Resume matches every entity of the first.
func resumeApp(tasks int) *entk.Pipeline {
	p := entk.NewPipeline("resume")
	p.UID = "pipeline.000"
	for si := 0; si < 2; si++ {
		s := entk.NewStage(fmt.Sprintf("s%d", si))
		s.UID = fmt.Sprintf("stage.000.%03d", si)
		for ti := 0; ti < tasks; ti++ {
			t := entk.NewTask(fmt.Sprintf("t%05d", ti))
			t.UID = fmt.Sprintf("task.000.%03d.%05d", si, ti)
			t.Executable = "sleep"
			s.AddTask(t) //nolint:errcheck
		}
		p.AddStage(s) //nolint:errcheck
	}
	return p
}

// benchResume is BenchmarkRecovery's end-to-end arm: unlike its siblings it
// goes through the real AppManager.Resume. One durable run of 2 stages x
// `tasks` is cut at the stage boundary (Run.Cancel journals nothing, so the
// directory looks like a process death); each iteration resumes a fresh
// manager from a copy of that directory and is timed from the Resume call
// to the run handle coming back. records/s counts the journal records one
// recovery reads.
func benchResume(b *testing.B, tasks int) {
	manager := func(dir string) (*entk.AppManager, *entk.Pipeline) {
		am, err := entk.NewAppManager(entk.AppConfig{
			Resource:   entk.Resource{Name: "supermic", Cores: 1024, Walltime: 72 * time.Hour},
			TimeScale:  250 * time.Microsecond,
			HostName:   "null",
			JournalDir: dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		p := resumeApp(tasks)
		if err := am.AddPipelines(p); err != nil {
			b.Fatal(err)
		}
		return am, p
	}
	const cut = "bench: cut at the stage boundary"
	crashed := b.TempDir()
	am, p := manager(crashed)
	started := make(chan *entk.Run, 1)
	p.Stages()[0].PostExec = func() error {
		(<-started).Cancel(cut)
		return nil
	}
	run, err := am.Start(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	started <- run
	var ce *entk.CancelError
	if err := run.Wait(); !errors.As(err, &ce) || ce.Reason != cut {
		b.Fatalf("cut run ended with %v", err)
	}
	records := 0
	err = journal.ReplayDir(crashed, func(journal.Record) error { records++; return nil })
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "journal")
		if err := os.CopyFS(dir, os.DirFS(crashed)); err != nil {
			b.Fatal(err)
		}
		am, _ := manager(dir)
		b.StartTimer()
		run, err := am.Resume(context.Background(), dir)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		run.Cancel("bench: recovery timed")
		if err := run.Wait(); !errors.As(err, &ce) {
			b.Fatalf("resumed run ended with %v", err)
		}
		if got := am.Core().RecoveryInfo().TasksRecovered; got != tasks {
			b.Fatalf("recovered %d tasks, want %d", got, tasks)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkAnEnPredict measures one analog search (the inner loop of the
// AUA sub-region tasks).
func BenchmarkAnEnPredict(b *testing.B) {
	ds, err := anen.Generate(anen.GenConfig{
		W: 64, H: 64, Vars: 5, Times: 160, Modes: 4,
		FrontSharpness: 14, NoiseSD: 0.08,
	}, 7)
	if err != nil {
		b.Fatal(err)
	}
	p := anen.DefaultParams()
	ds.Sigmas() // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Predict(i%ds.Locations(), p)
	}
}

// BenchmarkSeismicForward measures one forward wave simulation (the unit of
// the Fig 10 ensemble, at laptop scale).
func BenchmarkSeismicForward(b *testing.B) {
	m := seismic.NewModel(60, 60, 10, 1500)
	m.AddGaussianAnomaly(30, 30, 6, 150)
	src := seismic.Source{IX: 30, IZ: 10, Freq: 10}
	recs := []seismic.Receiver{{IX: 10, IZ: 5}, {IX: 50, IZ: 5}}
	cfg := seismic.SimConfig{NT: 200, DT: 0.004, DampWidth: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seismic.Forward(m, src, recs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMDRunKernel measures the Lennard-Jones integrator backing the
// mdrun executable: one 50-step task with its computation on.
func BenchmarkMDRunKernel(b *testing.B) {
	env := &workload.Env{Compute: true}
	for i := 0; i < b.N; i++ {
		if _, err := (workload.MDRunKernel{}).Run(context.Background(), workload.Spec{Arguments: []string{"-nsteps", "50"}, Seed: int64(i)}, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateDBSaveState measures the external state database's commit
// path — the §II-B4 hook every synchronized transition flows through.
func BenchmarkStateDBSaveState(b *testing.B) {
	db := statedb.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.SaveState("task", "task.bench", "DONE"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransferEstimate measures the SAGA data-management cost-model
// lookup used per staging directive.
func BenchmarkTransferEstimate(b *testing.B) {
	ts, err := saga.NewTransferService(vclock.NewScaled(time.Nanosecond))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Estimate(saga.TransferRequest{
			Bytes: 40 << 20, Protocol: saga.ProtoSCP,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
