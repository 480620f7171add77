package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/entk"
	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/remoterts"
	"repro/internal/rts"
	"repro/internal/vclock"
	kernels "repro/internal/workload"
)

// ensembleTasks is the paper's largest ensemble (O(10⁴) tasks, Fig 8): every
// embedded and remote rep moves this many tasks.
const ensembleTasks = 16384

// warmupReps are run and discarded before measuring, so lazy set-up (pools,
// the scheduler's goroutine cache, page faults) is not charged to the metrics.
const warmupReps = 3

type kind int

const (
	kindEmbedded kind = iota
	kindDurable
	kindRemote
	kindDaemon
)

// workload is one named input set. unit and tailPct say what the two
// turnaround metrics time on it; tailPct is fixed per workload so that the
// percentile never changes meaning with the rep count, and minSamples is
// the fewest samples a run of the declared length yields (the schema test
// checks that tailPct keeps ten samples beyond it at that count).
type workload struct {
	name       string
	why        string
	kind       kind
	shape      shape
	unit       string
	perStage   bool // turnaround samples are stage gaps, not one per rep
	tailPct    float64
	minSamples int
}

var workloads = []workload{
	{
		name: "wide", kind: kindEmbedded,
		shape: shape{pipelines: 1, stages: 1, tasks: ensembleTasks, cores: 4096},
		why:   "1 pipeline x 1 stage x 16384 tasks: the largest batches everywhere, so per-message cost in broker, msgcodec, sync commit and rts store dominates (the paper's weak-scaling shape)",
		unit:  "ensemble (Start call to the last PostExec)", tailPct: 75, minSamples: 40,
	},
	{
		name: "deep", kind: kindEmbedded,
		shape: shape{pipelines: 64, stages: 64, tasks: 4, cores: 4096},
		why:   "64 pipelines x 64 stages x 4 tasks: the same layers see batches of four, so per-batch fixed cost and stage/pipeline transitions dominate; the control for per-batch vs per-message trades",
		unit:  "stage (gap between consecutive PostExec calls of a pipeline)", perStage: true, tailPct: 90, minSamples: 40000,
	},
	{
		name: "chain", kind: kindEmbedded,
		shape: shape{pipelines: 1, stages: 2048, tasks: 8, cores: 64},
		why:   "1 pipeline x 2048 stages x 8 tasks on 64 cores: nothing overlaps, so time is the hop chain's latency with no queueing, what an adaptive application pays per decision",
		unit:  "stage (gap between consecutive PostExec calls)", perStage: true, tailPct: 90, minSamples: 20000,
	},
	{
		name: "durable", kind: kindDurable,
		shape: shape{pipelines: 1, stages: 2, tasks: ensembleTasks / 2, cores: 4096},
		why:   "the wide tasks as 2 stages with JournalDir on: write load on journal and statedb, then recoveries from a run cut at the stage boundary, the read side of the same layers",
		unit:  "recovery (Resume call to run handle returned)", tailPct: 50, minSamples: 12,
	},
	{
		name: "remote", kind: kindRemote,
		shape: shape{pipelines: 1, stages: 1, tasks: ensembleTasks, cores: 4096},
		why:   "the wide app through entk.NewAppManager and two loopback-TCP agents: transport, remote frames and proxy/agent carry the tasks here and do nothing in wide",
		unit:  "ensemble (Start call to the last PostExec)", tailPct: 75, minSamples: 40,
	},
	{
		name: "daemon-open", kind: kindDaemon,
		shape: daemonShape,
		why:   "open-loop Poisson arrivals of a 1x2x8 app at 200 runs/s against one entkd over its unix socket: admission, lease, appjson, socket, run-scoped queues; no embedded workload touches them",
		unit:  "run (due time to Wait return)", tailPct: 90, minSamples: 1000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options are the knobs of one pass.
type options struct {
	seed      int64
	seconds   time.Duration // how long the pass measures
	warmup    int           // reps (daemon-open: a share of seconds) discarded first
	calibrate bool          // time the calibrator between reps (the closed-loop workloads)
	out       string        // where trace.json and results.json go
	tmp       string        // per-process scratch directory under out
}

// pass is what one measured pass over a workload produced.
type pass struct {
	tally
	setupS   []float64 // one per set-up
	wallS    []float64 // Start→Wait, one per rep
	cpuUS    []float64 // CPU µs per task, one per rep
	allocs   []float64 // allocations per task, one per rep
	turnUS   []float64 // pooled turnaround samples
	tasksPS  float64   // set directly by daemon-open; otherwise derived from wallS
	nTasks   int       // tasks per rep
	counters counters  // of the last measured rep
	open     *openLoopStats
	cal      calibration // empty unless the pass calibrated
}

// counters are the stack's own counters at the end of a run. The per-queue
// stats are read at the last PostExec (see watchBroker), the totals after.
type counters struct {
	prog  core.Progress
	watch *brokerWatch
	total broker.QueueStats
}

// endToEnd renders the pass as the contract's end-to-end metrics. slow is
// the machine slowdown the timing metrics are divided by: the pass's own
// (p.cal.slowdown()) for the reported numbers, 1 for the numbers as measured.
func (p *pass) endToEnd(w *workload, slow float64) map[string]value {
	tps := p.tasksPS
	if tps == 0 {
		per := make([]float64, len(p.wallS))
		for i, s := range p.wallS {
			per[i] = float64(p.nTasks) / s
		}
		tps = median(per)
	}
	return map[string]value{
		"setup_s":            {median(p.setupS) / slow, "s", len(p.setupS)},
		"tasks_per_s":        {tps * slow, "1/s", len(p.wallS)},
		"allocs_per_task":    {median(p.allocs), "count", len(p.allocs)},
		"turnaround_p50_us":  {median(p.turnUS) / slow, "us", len(p.turnUS)},
		"turnaround_tail_us": {percentile(p.turnUS, w.tailPct) / slow, "us", len(p.turnUS)},
	}
}

// handle is the run-handle surface shared by the hand-wired stack and entk.
type handle interface {
	Wait() error
	Snapshot() core.Progress
	Cancel(reason string)
}

// rig is one single-shot manager with its application registered.
type rig struct {
	core  *core.AppManager
	start func(context.Context) (handle, error)
}

func stackRig(a *app, cfg stackConfig) (*stack, *rig, error) {
	s, err := newStack(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := s.inner.AddPipelines(a.pipes...); err != nil {
		s.teardown()
		return nil, nil, err
	}
	return s, &rig{core: s.inner, start: func(ctx context.Context) (handle, error) {
		return s.Start(ctx)
	}}, nil
}

func remoteRig(a *app, addrs []string) (*rig, error) {
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource:     entk.Resource{Name: resourceName, Cores: a.shape.cores, Walltime: walltime},
		TimeScale:    timeScale,
		HostName:     "null",
		RemoteAgents: addrs,
	})
	if err != nil {
		return nil, err
	}
	if err := am.AddPipelines(a.pipes...); err != nil {
		return nil, err
	}
	return &rig{core: am.Core(), start: func(ctx context.Context) (handle, error) {
		return am.Start(ctx)
	}}, nil
}

// repResult is one measured Start→Wait.
type repResult struct {
	setup, wall, cpu time.Duration
	allocs           uint64
	started          time.Time
	counters         counters
	err              error
}

// measure starts r, waits for it and reads the counters. t0 is when the
// caller began building r, so setup covers the whole path to a submittable
// state. With a tracer, one all-kinds subscriber is attached before Start.
func measure(r *rig, a *app, t0 time.Time, tr *tracer, runName string, keepSpans bool) repResult {
	collected := make(chan struct{})
	if tr != nil {
		sub := r.core.Subscribe(core.EventFilter{Buffer: eventBuffer(a.shape)})
		go func() {
			defer close(collected)
			tr.collect(runName, sub, keepSpans)
		}()
	} else {
		close(collected)
	}
	var res repResult
	watch := watchBroker(a, r.core)
	m := startMeter()
	res.started = m.t0
	run, err := r.start(context.Background())
	if err != nil {
		res.err = err
		if tr != nil {
			<-collected // Start's failure path closes the event stream
		}
		return res
	}
	res.setup = time.Since(t0)
	res.err = run.Wait()
	res.wall, res.cpu, res.allocs = m.stop()
	<-collected
	res.counters = counters{prog: run.Snapshot(), watch: watch, total: r.core.Broker().TotalStats()}
	return res
}

// record folds one clean rep into the pass.
func (p *pass) record(res repResult) {
	p.setupS = append(p.setupS, res.setup.Seconds())
	p.wallS = append(p.wallS, res.wall.Seconds())
	p.cpuUS = append(p.cpuUS, us(res.cpu)/float64(p.nTasks))
	p.allocs = append(p.allocs, float64(res.allocs)/float64(p.nTasks))
	p.counters = res.counters
}

// run measures the workload for o.seconds. With a tracer every run carries
// an event subscriber and the spans of the last one are kept.
func (w *workload) run(o options, tr *tracer) (*pass, error) {
	switch w.kind {
	case kindDurable:
		return w.runDurable(o, tr)
	case kindRemote:
		return w.runRemote(o, tr)
	case kindDaemon:
		return w.runDaemon(o, tr)
	}
	return w.runReps(o, tr, nil, func(a *app) (*rig, error) {
		_, r, err := stackRig(a, stackConfig{cores: w.shape.cores})
		return r, err
	})
}

// rep runs a on r as rep number rep. A measured rep is traced (when tr is
// set), judged and folded into p; a warm-up rep only has to succeed.
func (w *workload) rep(p *pass, a *app, r *rig, t0 time.Time, tr *tracer, rep int, measured bool) (repResult, error) {
	if !measured {
		tr = nil
	}
	res := measure(r, a, t0, tr, fmt.Sprintf("%s/%d", w.name, rep), true)
	if res.err != nil {
		return res, fmt.Errorf("%s rep %d: %w", w.name, rep, res.err)
	}
	if measured {
		p.checkRun(fmt.Sprintf("%s rep %d", w.name, rep), res.counters.prog, p.nTasks, p.nTasks, res.counters.watch)
		p.record(res)
	}
	return res, nil
}

// repClock time-boxes a rep loop: the first warmup reps are not measured,
// the box opens with the first measured rep, and the loop is done once the
// box has closed and at least one measured rep is in hand.
type repClock struct {
	warmup  int
	seconds time.Duration
	opened  time.Time
}

func (c *repClock) next(rep int, haveOne bool) (measured, done bool) {
	if rep < c.warmup {
		return false, false
	}
	if c.opened.IsZero() {
		c.opened = time.Now()
	}
	return true, haveOne && time.Since(c.opened) > c.seconds
}

// runReps is the rep loop of the embedded and remote workloads: a fresh
// application and a fresh manager per rep, warm-up reps discarded, a GC
// between reps, until the time budget is spent. A calibrating pass follows
// every measured rep with calibrator samples, inside the same budget.
func (w *workload) runReps(o options, tr *tracer, check func(*tally, *rig, repResult),
	newRig func(a *app) (*rig, error)) (*pass, error) {
	p := &pass{nTasks: w.shape.n()}
	clock := repClock{warmup: o.warmup, seconds: o.seconds}
	for rep := 0; ; rep++ {
		measured, done := clock.next(rep, len(p.wallS) > 0)
		if done {
			return p, nil
		}
		a := buildApp(w.shape, repTag(o.seed, rep))
		runtime.GC()
		t0 := time.Now()
		r, err := newRig(a)
		if err != nil {
			return nil, err
		}
		res, err := w.rep(p, a, r, t0, tr, rep, measured)
		if err != nil {
			return nil, err
		}
		if !measured {
			continue
		}
		if check != nil {
			check(&p.tally, r, res)
		}
		if w.perStage {
			p.turnUS = a.appendStageGaps(p.turnUS)
		} else {
			p.turnUS = append(p.turnUS, us(a.lastStamp().Sub(res.started)))
		}
		if o.calibrate {
			p.cal.topUp(time.Since(clock.opened) - p.cal.spent)
		}
	}
}

// ---- remote ---------------------------------------------------------------

// agentFleet is the remote workload's two in-process agents, each with its
// own scaled clock, simulated CI and SAGA session, hosting one FastModel
// pilot RTS per adopting manager.
type agentFleet struct {
	agents   []*remoterts.Agent
	clusters []*hpc.Cluster
	addrs    []string
}

func startFleet(n, coresEach int) (*agentFleet, error) {
	f := &agentFleet{}
	for i := 0; i < n; i++ {
		clock := vclock.NewScaled(timeScale)
		cluster, session, err := newCI(clock)
		if err != nil {
			f.close()
			return nil, err
		}
		f.clusters = append(f.clusters, cluster)
		registry := kernels.NewRegistry()
		a, err := remoterts.NewAgent(remoterts.AgentConfig{
			Addr: "tcp:127.0.0.1:0",
			Name: fmt.Sprintf("bench-agent-%d", i),
			Factory: func(res core.ResourceDesc) (core.RTS, error) {
				return rts.New(rts.Config{
					Resource: res, Clock: clock, Session: session,
					Registry: registry, Model: rts.FastModel(),
				})
			},
			Resource: core.ResourceDesc{Resource: resourceName, Cores: coresEach, Walltime: walltime},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.agents = append(f.agents, a)
		f.addrs = append(f.addrs, a.Addr())
	}
	return f, nil
}

func (f *agentFleet) close() {
	for _, a := range f.agents {
		a.Close()
	}
	for _, c := range f.clusters {
		c.Close()
	}
}

func (f *agentFleet) incarnations() int {
	n := 0
	for _, a := range f.agents {
		n += a.Incarnations()
	}
	return n
}

// fleetSetups is how many times the remote workload starts its fleet to
// take a median of the one-off part of its set-up.
const fleetSetups = 5

func (w *workload) runRemote(o options, tr *tracer) (*pass, error) {
	const agents = 2
	var fleet *agentFleet
	var fleetS []float64
	for i := 0; i < fleetSetups; i++ {
		if fleet != nil {
			fleet.close()
		}
		t0 := time.Now()
		f, err := startFleet(agents, w.shape.cores/agents)
		if err != nil {
			return nil, err
		}
		fleetS = append(fleetS, time.Since(t0).Seconds())
		fleet = f
	}
	defer fleet.close()

	reps := 0
	p, err := w.runReps(o, tr, func(t *tally, r *rig, res repResult) {
		if n := res.counters.prog.Utilization.TasksInFlight; n != 0 {
			t.fail(1, "remote: %d frames stranded in flight", n)
		}
		if n := r.core.RTSRestarts(); n != 0 {
			t.fail(1, "remote: %d RTS failovers", n)
		}
	}, func(a *app) (*rig, error) {
		reps++
		return remoteRig(a, fleet.addrs)
	})
	if err != nil {
		return nil, err
	}
	// Every rep adopts each agent exactly once; more means a reconnect.
	if got, want := fleet.incarnations(), reps*agents; got != want {
		p.fail(1, "remote: %d agent incarnations over %d reps, want %d", got, reps, want)
	}
	// Set-up is the fleet start (paid once) plus the per-rep manager build
	// and adoption.
	fleetMedian := median(fleetS)
	for i := range p.setupS {
		p.setupS[i] += fleetMedian
	}
	return p, nil
}
