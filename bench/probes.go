package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/entk"
	"repro/internal/appjson"
	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/remoterts"
	"repro/internal/rts"
	"repro/internal/statedb"
	"repro/internal/transport"
	"repro/internal/vclock"
	kernels "repro/internal/workload"
)

// A probe times one layer from outside, through its public API, on the
// message shapes and volumes of the workload being reported. Each probe
// repeats probeReps times and reports the median, so one descheduling does
// not own the number. Every probe runs for every workload, whether or not
// the layer is on that workload's path: the budget table picks the on-path
// ones, and the rest say what the layer would cost at this shape.
const probeReps = 3

// Sample counts of the fixed-size probes.
const (
	pingTrips      = 200 // small frames there and back for transport.frame_rtt_us
	remoteBatch    = 64  // tasks per probed proxy→agent round trip
	remoteTrips    = 200 // such round trips timed
	remoteAdopts   = 5   // proxy starts timed for remoterts.adopt_ms
	closedLoopRuns = 100 // daemon runs per closed-loop arm
	parseRuns      = 200 // appjson Parse+Build repetitions
	entkBuilds     = 10  // entk.NewAppManager repetitions
)

// wave is how many tasks of sh are eligible at once: one stage of every
// pipeline. The RTS and remote-frame probes feed a layer wave by wave,
// which is how the core feeds it.
func (sh shape) wave() int { return sh.pipelines * sh.tasks }

// probeUIDs are sh.n() task UIDs of the same form and length as buildApp's.
func probeUIDs(sh shape) []string { return buildApp(sh, repTag(0, 0)).uids }

// medianOf runs f reps times and returns the median of its values, or the
// first error.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		var err error
		if xs[i], err = f(); err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

// ---- core over an echo RTS --------------------------------------------------

// echoRTS completes every task inside Submit, so a run over it costs only
// the core, the broker and the codec.
type echoRTS struct {
	mu      sync.Mutex
	out     chan core.TaskResult
	stopped bool
}

func newEchoRTS() *echoRTS {
	// Buffered like PilotRTS's completion channel.
	return &echoRTS{out: make(chan core.TaskResult, 4096)}
}

func (e *echoRTS) Name() string                        { return "bench-echo" }
func (e *echoRTS) Start(context.Context) error         { return nil }
func (e *echoRTS) Completions() <-chan core.TaskResult { return e.out }
func (e *echoRTS) Alive() bool                         { return true }
func (e *echoRTS) Stats() core.RTSStats                { return core.RTSStats{} }

func (e *echoRTS) Submit(tasks []core.TaskDescription) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return context.Canceled
	}
	for _, t := range tasks {
		e.out <- core.TaskResult{UID: t.UID}
	}
	return nil
}

func (e *echoRTS) Stop() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.stopped {
		e.stopped = true
		close(e.out)
	}
	return nil
}

// echoRun runs sh's application through the hand-wired stack with the RTS
// swapped for an echo. With events set, one all-kinds subscriber drains the
// stream. It returns the Start→Wait time, the run's counters and the cost of
// one Snapshot call on the finished manager.
func echoRun(sh shape, events bool) (wall time.Duration, c counters, snapshot time.Duration, err error) {
	a := buildApp(sh, repTag(0, 0))
	s, r, err := stackRig(a, stackConfig{cores: sh.cores})
	if err != nil {
		return 0, c, 0, err
	}
	s.inner.SetRTSFactory(func(core.ResourceDesc) (core.RTS, error) { return newEchoRTS(), nil })
	var tr *tracer
	if events {
		tr = newTracer()
	}
	res := measure(r, a, time.Now(), tr, "echo", false)
	if res.err != nil {
		return 0, c, 0, res.err
	}
	if res.counters.prog.TasksDone != sh.n() {
		return 0, c, 0, fmt.Errorf("echo run finished %d/%d tasks", res.counters.prog.TasksDone, sh.n())
	}
	if tr != nil && tr.drops != 0 {
		return 0, c, 0, fmt.Errorf("echo run dropped %d events", tr.drops)
	}
	t0 := time.Now()
	s.inner.Snapshot()
	return res.wall, res.counters, time.Since(t0), nil
}

// ---- rts ----------------------------------------------------------------

type rtsProbe struct {
	wall, busy     time.Duration
	steals, pulls  uint64
	tasksCompleted int
}

// probeRTS drives a PilotRTS directly, with no core: Submit a wave in the
// batches the Emgr would use, drain its completions, next wave.
func probeRTS(sh shape, uids []string) (rtsProbe, error) {
	var out rtsProbe
	clock := vclock.NewScaled(timeScale)
	cluster, session, err := newCI(clock)
	if err != nil {
		return out, err
	}
	defer cluster.Close()
	defer session.Close()
	r, err := rts.New(rts.Config{
		Resource: core.ResourceDesc{Resource: resourceName, Cores: sh.cores, Walltime: walltime},
		Clock:    clock, Session: session, Registry: kernels.NewRegistry(), Model: rts.FastModel(),
	})
	if err != nil {
		return out, err
	}
	if err := r.Start(context.Background()); err != nil {
		return out, err
	}
	descs := make([]core.TaskDescription, len(uids))
	for i, uid := range uids {
		descs[i] = core.TaskDescription{UID: uid, Name: "t", Executable: "sleep", Cores: 1}
	}
	t0 := time.Now()
	for start := 0; start < len(descs); start += sh.wave() {
		wave := descs[start:min(start+sh.wave(), len(descs))]
		for b := 0; b < len(wave); b += defaultBatch {
			s0 := time.Now()
			if err := r.Submit(wave[b:min(b+defaultBatch, len(wave))]); err != nil {
				r.Stop() //nolint:errcheck // already failing
				return out, err
			}
			out.busy += time.Since(s0)
		}
		for range wave {
			res, ok := <-r.Completions()
			if !ok || res.ExitCode != 0 {
				r.Stop() //nolint:errcheck // already failing
				return out, fmt.Errorf("rts probe: task %s did not complete cleanly", res.UID)
			}
			out.tasksCompleted++
		}
	}
	out.wall = time.Since(t0)
	st := r.StoreStats()
	out.steals = st.Steals
	for _, n := range st.SchedulerPulls {
		out.pulls += n
	}
	return out, r.Stop()
}

// ---- broker -------------------------------------------------------------

// probeBroker replays a run's per-queue traffic through a fresh broker from
// one goroutine: the same number of messages per queue, published in the
// run's mean batch size and consumed in the mode the core uses (pull-mode
// batches on the task queues, push-mode single deliveries on the ordered
// ones), each batch drained before the next is published. Bodies are opaque
// to the broker, so a fixed one stands in.
func probeBroker(queues map[string]broker.QueueStats) (time.Duration, error) {
	body := make([]byte, 256)
	b := broker.New(broker.Options{})
	defer b.Close()
	var total time.Duration
	for name, qs := range queues {
		if qs.Published == 0 {
			continue
		}
		if err := b.DeclareQueue(name, broker.QueueOptions{Shards: qs.Shards}); err != nil {
			return 0, err
		}
		batch := 1
		if qs.PublishBatches > 0 {
			batch = int((qs.Published + qs.PublishBatches - 1) / qs.PublishBatches)
		}
		pull := qs.DeliverBatches > 0
		var c *broker.Consumer
		var err error
		if pull {
			c, err = b.ConsumeBatch(name, defaultBatch)
		} else {
			c, err = b.Consume(name, 64)
		}
		if err != nil {
			return 0, err
		}
		bodies := make([][]byte, batch)
		for i := range bodies {
			bodies[i] = body
		}
		t0 := time.Now()
		for sent := 0; sent < int(qs.Published); sent += batch {
			n := min(batch, int(qs.Published)-sent)
			if batch == 1 {
				err = b.Publish(name, body)
			} else {
				err = b.PublishBatch(name, bodies[:n])
			}
			if err != nil {
				return 0, err
			}
			for got := 0; got < n; {
				if pull {
					ds, rerr := c.ReceiveBatch(defaultBatch)
					if rerr != nil {
						return 0, rerr
					}
					if err := broker.AckBatch(ds); err != nil {
						return 0, err
					}
					got += len(ds)
				} else {
					d := <-c.Deliveries()
					if err := d.Ack(); err != nil {
						return 0, err
					}
					got++
				}
			}
		}
		total += time.Since(t0)
		c.Cancel()
	}
	return total, nil
}

// ---- msgcodec -----------------------------------------------------------

type codecProbe struct {
	wall   time.Duration
	msgs   int
	allocs uint64
}

// probeCodec encodes and decodes every control message one run of sh
// exchanges: per stage the pending UID chunks, the enqueue, submit, dequeue
// and completion sync frames with their acks, and the result batches (cut
// at resultBatch tasks, the run's observed mean).
func probeCodec(sh shape, uids []string, resultBatch int) (codecProbe, error) {
	var out codecProbe
	f := msgcodec.FormatBinary
	seq := uint64(0)
	var err error
	frame := func(reqs ...msgcodec.SyncRequest) {
		if err != nil {
			return
		}
		seq++
		var body []byte
		if body, err = f.EncodeSyncFrame(msgcodec.SyncFrame{Reply: "sync-ack-enq", Seq: seq, Reqs: reqs}); err != nil {
			return
		}
		if _, err = msgcodec.DecodeSyncFrame(body); err != nil {
			return
		}
		if body, err = f.EncodeSyncAck(msgcodec.SyncAck{Seq: seq, OK: true}); err != nil {
			return
		}
		_, err = msgcodec.DecodeSyncAck(body)
		out.msgs += 2
	}
	tasks := func(us []string, to core.TaskState) msgcodec.SyncRequest {
		return msgcodec.SyncRequest{Entity: "task", UIDs: us, Target: string(to)}
	}
	results := make([]msgcodec.TaskResult, 0, resultBatch)

	m := startMeter()
	for pi := 0; pi < sh.pipelines; pi++ {
		frame(msgcodec.SyncRequest{Entity: "pipeline", UID: "pipeline.probe", Target: string(core.PipelineScheduling)})
		for si := 0; si < sh.stages; si++ {
			base := (pi*sh.stages + si) * sh.tasks
			stage := uids[base : base+sh.tasks]
			frame(msgcodec.SyncRequest{Entity: "stage", UID: "stage.probe", Target: string(core.StageScheduling)},
				tasks(stage, core.TaskScheduling), tasks(stage, core.TaskScheduled))
			for b := 0; b < len(stage) && err == nil; b += defaultBatch {
				chunk := stage[b:min(b+defaultBatch, len(stage))]
				if _, err = msgcodec.DecodeTaskUIDs(f.EncodeTaskUIDs(chunk)); err != nil {
					break
				}
				out.msgs++
				frame(tasks(chunk, core.TaskSubmitting), tasks(chunk, core.TaskSubmitted))
			}
			frame(msgcodec.SyncRequest{Entity: "stage", UID: "stage.probe", Target: string(core.StageScheduled)})
			for b := 0; b < len(stage) && err == nil; b += resultBatch {
				chunk := stage[b:min(b+resultBatch, len(stage))]
				results = results[:0]
				for _, uid := range chunk {
					results = append(results, msgcodec.TaskResult{UID: uid})
				}
				var body []byte
				if body, err = f.EncodeTaskResults(results); err != nil {
					break
				}
				if _, err = msgcodec.DecodeTaskResults(body); err != nil {
					break
				}
				out.msgs++
				frame(tasks(chunk, core.TaskExecuted), tasks(chunk, core.TaskDone))
			}
			frame(msgcodec.SyncRequest{Entity: "stage", UID: "stage.probe", Target: string(core.StageDone)})
		}
		frame(msgcodec.SyncRequest{Entity: "pipeline", UID: "pipeline.probe", Target: string(core.PipelineDone)})
	}
	out.wall, _, out.allocs = m.stop()
	return out, err
}

// ---- remote frames over transport ---------------------------------------

type frameProbe struct {
	codec  time.Duration // encode+decode of every frame
	frames uint64
	bytes  int
	rtt    float64 // µs, small frame there and back
}

func framedLen(body []byte) int {
	var hdr [binary.MaxVarintLen64]byte
	return binary.PutUvarint(hdr[:], uint64(len(body))) + len(body)
}

// probeFrames ships what two agents would exchange for one run of sh
// through a real transport.Conn pair over loopback TCP: per wave, each
// Emgr-sized batch striped over two task-batch frames, answered with result
// frames of at most 256 results (the agent's coalescing bound).
func probeFrames(sh shape, uids []string) (frameProbe, error) {
	var out frameProbe
	ln, err := transport.Listen("tcp:127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer ln.Close() //nolint:errcheck // listener of a finished probe
	opts := transport.Options{HeartbeatInterval: -1}
	// The agent side: echo pings, answer task batches, and report its own
	// codec time when the client hangs up.
	type served struct {
		codec time.Duration
		err   error
	}
	srv := make(chan served, 1)
	go func() {
		var out served
		defer func() { srv <- out }()
		nc, err := ln.Accept()
		if err != nil {
			out.err = err
			return
		}
		conn := transport.NewConn(nc, opts)
		defer conn.Close() //nolint:errcheck // peer of a finished probe
		for {
			body, err := conn.Recv()
			if err != nil {
				return // the client closed: done
			}
			if string(body) == pingBody {
				err = conn.Send(body)
			} else {
				err = answerBatch(conn, body, &out.codec)
			}
			if err != nil {
				out.err = err
				return
			}
		}
	}()
	nc, err := transport.Dial(transport.Addr(ln), 2*time.Second)
	if err != nil {
		return out, err
	}
	conn := transport.NewConn(nc, opts)

	small := []byte(pingBody)
	rtts := make([]float64, pingTrips)
	for i := range rtts {
		t0 := time.Now()
		if err = conn.Send(small); err == nil {
			_, err = conn.Recv()
		}
		if err != nil {
			conn.Close() //nolint:errcheck // already failing
			return out, err
		}
		rtts[i] = us(time.Since(t0))
	}
	out.rtt = median(rtts)

	const agents = 2
	for start := 0; start < len(uids) && err == nil; start += sh.wave() {
		wave := uids[start:min(start+sh.wave(), len(uids))]
		want := 0
		for b := 0; b < len(wave) && err == nil; b += defaultBatch {
			batch := wave[b:min(b+defaultBatch, len(wave))]
			stripes := make([][]msgcodec.RemoteTask, agents)
			for i, uid := range batch {
				stripes[i%agents] = append(stripes[i%agents], msgcodec.RemoteTask{UID: uid, Name: "t", Executable: "sleep", Cores: 1})
			}
			for _, stripe := range stripes {
				if len(stripe) == 0 {
					continue
				}
				t0 := time.Now()
				body := msgcodec.EncodeTaskBatch(stripe)
				out.codec += time.Since(t0)
				out.bytes += framedLen(body)
				want += len(stripe)
				if err = conn.Send(body); err != nil {
					break
				}
			}
		}
		for got := 0; got < want && err == nil; {
			var body []byte
			if body, err = conn.Recv(); err != nil {
				break
			}
			out.bytes += framedLen(body)
			t0 := time.Now()
			var rs []msgcodec.TaskResult
			rs, err = msgcodec.DecodeTaskResults(body)
			out.codec += time.Since(t0)
			got += len(rs)
		}
	}
	sent, received := conn.Stats()
	out.frames = sent + received - 2*uint64(len(rtts))
	conn.Close() //nolint:errcheck // probe finished
	agent := <-srv
	out.codec += agent.codec
	if err == nil {
		err = agent.err
	}
	return out, err
}

const pingBody = "bench-ping"

// answerBatch is the agent side of probeFrames: decode a task batch and
// send its results back, at most 256 per frame, adding its encode and
// decode time to codec.
func answerBatch(conn *transport.Conn, body []byte, codec *time.Duration) error {
	t0 := time.Now()
	tasks, err := msgcodec.DecodeTaskBatch(body)
	if err != nil {
		return err
	}
	*codec += time.Since(t0)
	for b := 0; b < len(tasks); b += 256 {
		chunk := tasks[b:min(b+256, len(tasks))]
		rs := make([]msgcodec.TaskResult, len(chunk))
		for i := range chunk {
			rs[i].UID = chunk[i].UID
		}
		t0 := time.Now()
		out, err := msgcodec.FormatBinary.EncodeTaskResults(rs)
		if err != nil {
			return err
		}
		*codec += time.Since(t0)
		if err := conn.Send(out); err != nil {
			return err
		}
	}
	return nil
}

// ---- remoterts ----------------------------------------------------------

type remoteProbe struct {
	batchRTT, allocsPerBatch, adoptMS float64
}

// probeRemoteRTS prices the proxy/agent pair alone: a 64-task batch to an
// echo RTS behind one agent and its 64 results back, and what adopting the
// agent costs a fresh proxy.
func probeRemoteRTS() (remoteProbe, error) {
	var out remoteProbe
	agent, err := remoterts.NewAgent(remoterts.AgentConfig{
		Addr:    "tcp:127.0.0.1:0",
		Name:    "bench-probe-agent",
		Factory: func(core.ResourceDesc) (core.RTS, error) { return newEchoRTS(), nil },
	})
	if err != nil {
		return out, err
	}
	defer agent.Close()
	tasks := make([]core.TaskDescription, remoteBatch)
	for i := range tasks {
		tasks[i] = core.TaskDescription{UID: fmt.Sprintf("task.probe.%05d", i), Executable: "sleep", Cores: 1}
	}
	var adopts []float64
	var proxy *remoterts.Proxy
	for i := 0; i < remoteAdopts; i++ {
		if proxy != nil {
			proxy.Stop() //nolint:errcheck // Proxy.Stop never fails
		}
		t0 := time.Now()
		if proxy, err = remoterts.NewProxy(remoterts.Config{Addrs: []string{agent.Addr()}}); err != nil {
			return out, err
		}
		if err := proxy.Start(context.Background()); err != nil {
			return out, err
		}
		adopts = append(adopts, ms(time.Since(t0)))
	}
	defer proxy.Stop() //nolint:errcheck // Proxy.Stop never fails
	out.adoptMS = median(adopts)

	roundTrip := func() error {
		if err := proxy.Submit(tasks); err != nil {
			return err
		}
		for n := 0; n < remoteBatch; n++ {
			if _, ok := <-proxy.Completions(); !ok {
				return fmt.Errorf("remoterts probe: completions closed mid-drain")
			}
		}
		return nil
	}
	for i := 0; i < 20; i++ { // warm the connection and the pools
		if err := roundTrip(); err != nil {
			return out, err
		}
	}
	rtts := make([]float64, remoteTrips)
	m0 := mallocs()
	for i := range rtts {
		t0 := time.Now()
		if err := roundTrip(); err != nil {
			return out, err
		}
		rtts[i] = us(time.Since(t0))
	}
	out.allocsPerBatch = float64(mallocs()-m0) / remoteTrips
	out.batchRTT = median(rtts)
	return out, nil
}

// ---- daemon, appjson, entk ----------------------------------------------

type daemonProbe struct {
	inprocMS, socketMS, parseBuildUS float64
	open                             *openLoopStats
}

// probeDaemon prices the daemon path for one caller at a time (no queueing):
// the run in-process, the same run over the socket, and Parse+Build of its
// document. With openFor set it also drives a short untraced open loop for
// the open-loop diagnostics.
func probeDaemon(socket string, seed int64, openFor time.Duration) (daemonProbe, error) {
	var out daemonProbe
	sd, err := serveDaemon(socket)
	if err != nil {
		return out, err
	}
	defer sd.stop()
	rng := rand.New(rand.NewSource(seed))
	body := daemonAppJSON(daemonShape, rng)
	ctx := context.Background()
	inproc := make([]float64, closedLoopRuns)
	for i := range inproc {
		t0 := time.Now()
		id, err := sd.d.Submit("bench", false, body)
		if err == nil {
			err = sd.d.Wait(ctx, id)
		}
		if err != nil {
			return out, err
		}
		inproc[i] = ms(time.Since(t0))
	}
	socketed := make([]float64, closedLoopRuns)
	for i := range socketed {
		t0 := time.Now()
		ref, err := sd.client.Submit(ctx, body, entk.SubmitOptions{Tenant: "bench"})
		if err == nil {
			err = ref.Wait(ctx)
		}
		if err != nil {
			return out, err
		}
		socketed[i] = ms(time.Since(t0))
	}
	out.inprocMS, out.socketMS = median(inproc), median(socketed)

	parse := make([]float64, parseRuns)
	for i := range parse {
		t0 := time.Now()
		doc, err := appjson.Parse(body)
		if err == nil {
			_, _, err = doc.Build()
		}
		if err != nil {
			return out, err
		}
		parse[i] = us(time.Since(t0))
	}
	out.parseBuildUS = median(parse)

	if openFor > 0 {
		out.open = driveOpenLoop(openLoopPlan(seed, openFor/4, openFor), openFor/4, openFor, sd.submitAndWait(nil))
		if out.open.failed > 0 {
			return out, fmt.Errorf("daemon probe: %d open-loop runs failed (%s)", out.open.failed, out.open.why)
		}
	}
	return out, nil
}

// probeEntk times entk.NewAppManager on the null host, the shipped
// constructor the hand-wired stack stands in for.
func probeEntk(sh shape) (float64, error) {
	return medianOf(entkBuilds, func() (float64, error) {
		t0 := time.Now()
		_, err := entk.NewAppManager(entk.AppConfig{
			Resource:  entk.Resource{Name: resourceName, Cores: sh.cores, Walltime: walltime},
			TimeScale: timeScale,
			HostName:  "null",
		})
		return ms(time.Since(t0)), err
	})
}

// ---- journal and statedb ------------------------------------------------

// transition is one committed state record of a run, in commit order
// per entity.
type transition struct{ entity, uid, state string }

// transitionsOf lists the state records one clean run of sh commits: six per
// task, three per stage, two per pipeline.
func transitionsOf(sh shape, uids []string) []transition {
	out := make([]transition, 0, 6*len(uids)+3*sh.pipelines*sh.stages+2*sh.pipelines)
	for pi := 0; pi < sh.pipelines; pi++ {
		p := fmt.Sprintf("pipeline.probe.%03d", pi)
		out = append(out, transition{"pipeline", p, string(core.PipelineScheduling)})
		for si := 0; si < sh.stages; si++ {
			s := fmt.Sprintf("stage.probe.%03d.%04d", pi, si)
			base := (pi*sh.stages + si) * sh.tasks
			out = append(out, transition{"stage", s, string(core.StageScheduling)})
			for _, st := range taskStates[:2] {
				for _, uid := range uids[base : base+sh.tasks] {
					out = append(out, transition{"task", uid, string(st)})
				}
			}
			out = append(out, transition{"stage", s, string(core.StageScheduled)})
			for _, st := range taskStates[2:] {
				for _, uid := range uids[base : base+sh.tasks] {
					out = append(out, transition{"task", uid, string(st)})
				}
			}
			out = append(out, transition{"stage", s, string(core.StageDone)})
		}
		out = append(out, transition{"pipeline", p, string(core.PipelineDone)})
	}
	return out
}

type journalProbe struct {
	appendNS, replayNS float64 // per record
	bytes              int64
	records            int
}

// probeJournal appends the run's state records to a segmented journal the
// way the synchronizer does (encode, AppendRaw), then replays the directory
// the way Resume does (ReplayDir, decode).
func probeJournal(dir string, recs []transition) (journalProbe, error) {
	out := journalProbe{records: len(recs)}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	j, err := journal.OpenDir(dir, journal.Options{})
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	for _, r := range recs {
		if _, err := j.AppendRaw("state", msgcodec.FormatBinary.EncodeStateRec(r.entity, r.uid, r.state)); err != nil {
			j.Close() //nolint:errcheck // already failing
			return out, err
		}
	}
	out.appendNS = float64(time.Since(t0)) / float64(len(recs))
	if err := j.Close(); err != nil {
		return out, err
	}
	segs, err := journal.ListSegments(dir)
	if err != nil {
		return out, err
	}
	for _, s := range segs {
		out.bytes += s.Size
	}
	seen := 0
	t0 = time.Now()
	err = journal.ReplayDir(dir, func(rec journal.Record) error {
		if rec.Type != "state" {
			return nil
		}
		seen++
		_, derr := msgcodec.DecodeStateRec(rec.Data)
		return derr
	})
	out.replayNS = float64(time.Since(t0)) / float64(len(recs))
	if err == nil && seen != len(recs) {
		err = fmt.Errorf("journal probe: replayed %d of %d records", seen, len(recs))
	}
	return out, err
}

type statedbProbe struct {
	commitNS, writeMS, loadMS float64
}

// probeStateDB commits the run's transitions to a statedb, then writes and
// loads a snapshot of the final entity set the way the synchronizer's
// snapshot hook and Resume do.
func probeStateDB(dir string, recs []transition) (statedbProbe, error) {
	var out statedbProbe
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	db := statedb.New()
	t0 := time.Now()
	for _, r := range recs {
		if err := db.SaveState(r.entity, r.uid, r.state); err != nil {
			return out, err
		}
	}
	out.commitNS = float64(time.Since(t0)) / float64(len(recs))
	var err error
	wm := uint64(len(recs))
	out.writeMS, err = medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		wm++
		snap := msgcodec.Snapshot{Watermark: wm, Entries: db.SnapshotEntries()}
		_, err := statedb.WriteSnapshot(dir, snap, msgcodec.FormatBinary)
		return ms(time.Since(t0)), err
	})
	if err != nil {
		return out, err
	}
	out.loadMS, err = medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		snap, ok, err := statedb.LoadLatestSnapshot(dir)
		if err == nil && (!ok || snap.Watermark != wm) {
			err = fmt.Errorf("statedb probe: snapshot %d did not load back", wm)
		}
		return ms(time.Since(t0)), err
	})
	return out, err
}
