package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// probeOpenLoop is how long the daemon probe's own open loop runs on the
// workloads that are not daemon-open: long enough for a p99 with ten
// samples beyond it at daemonRate.
const probeOpenLoop = 5 * time.Second

// probeCalSamples is how many calibrator samples the traced report takes to
// say how fast the box ran while the probes did.
const probeCalSamples = 32

// layerUnits maps every declared per-layer metric to its unit, so a metric
// is reported under exactly the name and unit BENCHMARK.json declares.
var layerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// layerReport collects one workload's per-layer metrics.
type layerReport struct {
	w      *workload
	o      options
	n      float64  // tasks per run
	uids   []string // task UIDs of the probes' application
	m      map[string]value
	traced counters // the traced pass's last run

	// carried from probe to probe
	queues   counters // whose per-queue traffic the broker probe replays
	echoNS   float64
	brokerNS float64
	codecNS  float64
}

// set records a metric backed by count samples (1 for counters and single
// timings). An undeclared name is a harness bug.
func (r *layerReport) set(name string, v float64, count int) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	r.m[name] = value{v, unit, count}
}

// tracedReport produces a workload's per-layer metrics: a third of the time
// on an untraced baseline (unless base is given), a third on a traced pass
// of the workload itself, then the layer probes at the workload's shape and
// the budget that sets them against the end-to-end time. It writes
// trace.json.
func tracedReport(w *workload, o options, base *pass) (*report, error) {
	third := o
	third.warmup = 1
	third.seconds = o.seconds / 3
	if base == nil {
		var err error
		if base, err = w.run(third, nil); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	traced, err := w.run(third, tr)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: w.name, Attempted: traced.attempted, Failed: traced.failed, Why: traced.why}
	if tr.drops != 0 {
		rep.Failed++
		rep.Why = append(rep.Why, fmt.Sprintf("traced pass dropped %d events", tr.drops))
	}
	rep.Correct = rep.Failed == 0

	r := &layerReport{
		w: w, o: o, n: float64(w.shape.n()), uids: probeUIDs(w.shape),
		m: map[string]value{}, traced: traced.counters,
	}
	rep.Metrics = r.m
	tr.metrics(r.m)
	r.set("core.transitions_per_task", ratio(float64(tr.events), float64(tr.runs)*r.n), tr.runs)

	// The probes time the layers as the box runs now, so the budget sets them
	// against the end-to-end numbers as measured, not the normalised ones.
	baseE2E, tracedE2E := base.endToEnd(w, 1), traced.endToEnd(w, 1)
	if w.kind == kindDaemon {
		r.set("bench.trace_overhead_ratio", tracedE2E["turnaround_p50_us"].v/baseE2E["turnaround_p50_us"].v, 1)
	} else {
		r.set("bench.trace_overhead_ratio", baseE2E["tasks_per_s"].v/tracedE2E["tasks_per_s"].v, 1)
	}
	r.set("bench.cpu_us_per_task", median(base.cpuUS), len(base.cpuUS))
	var cal calibration
	for i := 0; i < probeCalSamples; i++ {
		cal.sample()
	}
	r.set("bench.machine_slowdown", cal.slowdown(), probeCalSamples)

	for _, probe := range []func() error{
		r.core, r.broker, r.codec, r.rts, r.frames, r.remote, r.durability,
		func() error { return r.daemon(base.open) }, r.entk,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}

	total, rows := budget(w, r.m, baseE2E)
	explained := 0.0
	for _, row := range rows {
		explained += row.cost
	}
	r.set("bench.unexplained_share", (total-explained)/total, 1)

	if err := tr.write(filepath.Join(o.out, "trace.json"), w.name, r.m); err != nil {
		return nil, err
	}
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// core runs the workload's application over an echo RTS, events off and on.
func (r *layerReport) core() error {
	var echo counters
	var plain, withEvents, snapshot []float64
	for i := 0; i < probeReps; i++ {
		wall, c, snap, err := echoRun(r.w.shape, false)
		if err != nil {
			return err
		}
		echo = c
		plain = append(plain, wall.Seconds())
		snapshot = append(snapshot, us(snap))
		if wall, _, _, err = echoRun(r.w.shape, true); err != nil {
			return err
		}
		withEvents = append(withEvents, wall.Seconds())
	}
	r.echoNS = median(plain) * 1e9 / r.n
	r.set("core.echo_tasks_per_s", r.n/median(plain), probeReps)
	r.set("core.events_on_tasks_per_s", r.n/median(withEvents), probeReps)
	r.set("core.snapshot_call_us", median(snapshot), probeReps)

	// Broker counters come from the traced run itself. A daemon-hosted run
	// deletes its queues when it ends, so there the echo run of the same
	// application stands in: the core drives the same traffic either way.
	r.queues = r.traced
	if r.queues.total.Published == 0 {
		r.queues = echo
	}
	return nil
}

func (r *layerReport) broker() error {
	c := r.queues
	r.set("broker.msgs_per_task", float64(c.total.Published)/r.n, 1)
	r.set("broker.peak_depth", float64(c.total.PeakDepth), 1)
	r.set("broker.steals_per_kmsg", ratio(float64(c.total.Steals)*1000, float64(c.total.Delivered)), 1)
	taskMsgs := c.watch.queues["pending"].Published + c.watch.queues["done"].Published
	r.set("broker.batch_mean", ratio(2*r.n, float64(taskMsgs)), 1)
	var err error
	r.brokerNS, err = medianOf(probeReps, func() (float64, error) {
		d, err := probeBroker(c.watch.queues)
		return float64(d) / r.n, err
	})
	r.set("broker.busy_ns_per_task", r.brokerNS, probeReps)
	return err
}

func (r *layerReport) codec() error {
	// Result batches as large as the run's done-queue messages were on
	// average, within the callback loop's coalescing bound.
	resultBatch := int(ratio(r.n, float64(r.queues.watch.queues["done"].Published)) + 0.5)
	resultBatch = max(1, min(resultBatch, 256))
	var cp codecProbe
	var err error
	r.codecNS, err = medianOf(probeReps, func() (float64, error) {
		var err error
		cp, err = probeCodec(r.w.shape, r.uids, resultBatch)
		return float64(cp.wall) / r.n, err
	})
	if err != nil {
		return err
	}
	r.set("msgcodec.encdec_ns_per_task", r.codecNS, probeReps)
	r.set("msgcodec.allocs_per_msg", float64(cp.allocs)/float64(cp.msgs), 1)
	r.set("core.self_ns_per_task", r.echoNS-r.brokerNS-r.codecNS, 1)
	return nil
}

func (r *layerReport) rts() error {
	var rp rtsProbe
	perTask, err := medianOf(probeReps, func() (float64, error) {
		var err error
		rp, err = probeRTS(r.w.shape, r.uids)
		return float64(rp.wall) / r.n, err
	})
	if err != nil {
		return err
	}
	r.set("rts.direct_tasks_per_s", 1e9/perTask, probeReps)
	r.set("rts.submit_busy_ns_per_task", float64(rp.busy)/r.n, 1)
	r.set("rts.drain_wait_ns_per_task", float64(rp.wall-rp.busy)/r.n, 1)
	r.set("rts.steal_ratio", ratio(float64(rp.steals), float64(rp.pulls)), 1)
	r.set("rts.pulls_per_ktask", float64(rp.pulls)*1000/r.n, 1)
	return nil
}

func (r *layerReport) frames() error {
	var fp frameProbe
	perTask, err := medianOf(probeReps, func() (float64, error) {
		var err error
		fp, err = probeFrames(r.w.shape, r.uids)
		return float64(fp.codec) / r.n, err
	})
	if err != nil {
		return err
	}
	r.set("msgcodec.remote_frame_ns_per_task", perTask, probeReps)
	r.set("transport.frame_rtt_us", fp.rtt, pingTrips)
	r.set("transport.frames_per_task", float64(fp.frames)/r.n, 1)
	r.set("transport.bytes_per_task", float64(fp.bytes)/r.n, 1)
	return nil
}

func (r *layerReport) remote() error {
	rp, err := probeRemoteRTS()
	if err != nil {
		return err
	}
	r.set("remoterts.batch_rtt_us", rp.batchRTT, remoteTrips)
	r.set("remoterts.allocs_per_batch", rp.allocsPerBatch, remoteTrips)
	r.set("remoterts.adopt_ms", rp.adoptMS, remoteAdopts)
	return nil
}

// durability probes the journal and the statedb on the run's own state
// records; the two run counters are 0 for a workload without a journal.
func (r *layerReport) durability() error {
	recs := transitionsOf(r.w.shape, r.uids)
	jp, err := probeJournal(filepath.Join(r.o.tmp, "probe-journal"), recs)
	if err != nil {
		return err
	}
	r.set("journal.append_ns_per_rec", jp.appendNS, len(recs))
	r.set("journal.replay_ns_per_rec", jp.replayNS, len(recs))
	r.set("journal.bytes_per_task", float64(jp.bytes)/r.n, 1)
	journalSeq, snapshots := uint64(0), 0
	if d := r.traced.prog.Durability; d != nil {
		journalSeq, snapshots = d.JournalSeq, d.Snapshots
	}
	r.set("journal.records_per_task", float64(journalSeq)/r.n, 1)
	sp, err := probeStateDB(filepath.Join(r.o.tmp, "probe-statedb"), recs)
	if err != nil {
		return err
	}
	r.set("statedb.commit_ns_per_transition", sp.commitNS, len(recs))
	r.set("statedb.snapshot_write_ms", sp.writeMS, probeReps)
	r.set("statedb.snapshot_load_ms", sp.loadMS, probeReps)
	r.set("statedb.snapshots_per_run", float64(snapshots), 1)
	return nil
}

// daemon prices the daemon path. On daemon-open the open-loop diagnostics
// come from the untraced baseline (open); elsewhere from a loop of the
// probe's own.
func (r *layerReport) daemon(open *openLoopStats) error {
	openFor := time.Duration(0)
	if open == nil {
		openFor = min(probeOpenLoop, r.o.seconds)
	}
	dp, err := probeDaemon(filepath.Join(r.o.tmp, "probe.sock"), r.o.seed, openFor)
	if err != nil {
		return err
	}
	if dp.open != nil {
		open = dp.open
	}
	r.set("daemon.inproc_run_ms", dp.inprocMS, closedLoopRuns)
	r.set("daemon.socket_tax_ms", dp.socketMS-dp.inprocMS, closedLoopRuns)
	r.set("appjson.parse_build_us", dp.parseBuildUS, parseRuns)
	r.set("daemon.run_latency_p99_ms", percentile(open.latencyMS, 99), len(open.latencyMS))
	r.set("daemon.gen_lag_p99_ms", percentile(open.lagMS, 99), len(open.lagMS))
	r.set("daemon.achieved_over_offered", open.achievedOverOffered(), open.runs)
	return nil
}

func (r *layerReport) entk() error {
	v, err := probeEntk(r.w.shape)
	r.set("entk.new_appmanager_ms", v, entkBuilds)
	return err
}

// budgetRow is one on-path layer's probed cost in the budget's unit.
type budgetRow struct {
	layer string
	cost  float64
	how   string
}

// budget sets the on-path layer probes against the workload's end-to-end
// time. For the throughput workloads the unit is ns per task (1e9 ÷
// tasks_per_s); for daemon-open it is ms per run (the median run latency).
// The probes run one layer at a time on an idle process, while in the real
// run the layers overlap on the available cores, so the rows can sum past
// the total: the remainder, bench.unexplained_share, is then negative.
func budget(w *workload, m map[string]value, e2e map[string]value) (total float64, rows []budgetRow) {
	get := func(name string) float64 { return m[name].v }
	if w.kind == kindDaemon {
		total = e2e["turnaround_p50_us"].v / 1000
		return total, []budgetRow{
			{"daemon (in-process run, modelled floor included)", get("daemon.inproc_run_ms"), "daemon.inproc_run_ms"},
			{"daemon socket + client", get("daemon.socket_tax_ms"), "daemon.socket_tax_ms"},
		}
	}
	total = 1e9 / e2e["tasks_per_s"].v
	rows = []budgetRow{
		{"core (self)", get("core.self_ns_per_task"), "core.self_ns_per_task"},
		{"broker", get("broker.busy_ns_per_task"), "broker.busy_ns_per_task"},
		{"msgcodec", get("msgcodec.encdec_ns_per_task"), "msgcodec.encdec_ns_per_task"},
		{"rts", 1e9 / get("rts.direct_tasks_per_s"), "1e9 ÷ rts.direct_tasks_per_s"},
	}
	switch w.kind {
	case kindDurable:
		records := get("journal.records_per_task")
		rows = append(rows,
			budgetRow{"journal", records * get("journal.append_ns_per_rec"),
				"journal.records_per_task × journal.append_ns_per_rec"},
			budgetRow{"statedb", records*get("statedb.commit_ns_per_transition") +
				get("statedb.snapshots_per_run")*get("statedb.snapshot_write_ms")*1e6/float64(w.shape.n()),
				"records × commit_ns + snapshots_per_run × snapshot_write_ms ÷ tasks"})
	case kindRemote:
		rows = append(rows,
			budgetRow{"msgcodec (remote frames)", get("msgcodec.remote_frame_ns_per_task"), "msgcodec.remote_frame_ns_per_task"},
			budgetRow{"remoterts + transport", get("remoterts.batch_rtt_us") * 1000 / remoteBatch,
				"remoterts.batch_rtt_us ÷ tasks per probed batch"})
	}
	return total, rows
}

func printBudget(out io.Writer, w *workload, m map[string]value, e2e map[string]value) {
	total, rows := budget(w, m, e2e)
	unit := "ns/task"
	if w.kind == kindDaemon {
		unit = "ms/run"
	}
	fmt.Fprintf(out, "  layer budget (%s), end to end %.4g:\n", unit, total)
	for _, r := range rows {
		fmt.Fprintf(out, "    %-50s %10.4g  %5.1f%%  = %s\n", r.layer, r.cost, 100*r.cost/total, r.how)
	}
	fmt.Fprintf(out, "    %-50s %10s  %5.1f%%\n", "unexplained", "", 100*m["bench.unexplained_share"].v)
}
