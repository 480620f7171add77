package main

import "sort"

// value is one reported metric: the number, its unit, and how many samples
// stand behind it (1 for a counter or a single timing).
type value struct {
	v    float64
	unit string
	n    int
}

// metricDef declares one metric of BENCHMARK.json. bound is the share of
// the parent's median by which an end-to-end metric may worsen (0 for
// per-layer metrics, which are not gated).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" | "higher"
	bound  float64
	def    string
}

// endToEnd is what a user of the toolkit sees. Every workload reports every
// metric, with tracing off. On the closed-loop workloads the timing metrics
// are divided by the machine slowdown the calibrator measured during the
// same pass (calibrate.go). Failures are not a metric here: they
// are the result line's failed/attempted (the issue's fail_ratio, bound 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"workload entry to first task submittable: stack built and Start returned (per rep), agents started and adopted (remote), daemon serving and its first run completed (daemon-open); median"},
	{"tasks_per_s", "1/s", "higher", 0.25,
		"tasks ÷ (Start call to Wait return), teardown included; median over reps (daemon-open: tasks of completed runs ÷ measured window)"},
	{"allocs_per_task", "count", "lower", 0.05,
		"MemStats.Mallocs over the same interval ÷ tasks; median over reps"},
	{"turnaround_p50_us", "us", "lower", 0.25,
		"median latency of the workload's decision unit (see -list): ensemble, stage, recovery or run"},
	{"turnaround_tail_us", "us", "lower", 0.25,
		"same samples, the workload's tail percentile (see -list)"},
}

// perLayer lists the layer metrics of the traced run, in the layer order of
// the README. Each is measured from outside the layer: a counter the stack
// already exposes, the traced pass's committed-transition gaps, or a probe
// that replays the workload's message shapes against the layer's public API.
var perLayer = []metricDef{
	{"broker.busy_ns_per_task", "ns", "lower", 0, "probe: the traced run's per-queue message counts replayed through a fresh broker, ÷ tasks"},
	{"broker.msgs_per_task", "count", "lower", 0, "counter: messages published on all queues ÷ tasks"},
	{"broker.batch_mean", "count", "higher", 0, "counter: tasks carried per pending/done message"},
	{"broker.steals_per_kmsg", "count", "lower", 0, "counter: cross-shard steals per 1000 deliveries"},
	{"broker.peak_depth", "count", "lower", 0, "counter: sum of per-queue ready-depth high-water marks"},

	{"msgcodec.encdec_ns_per_task", "ns", "lower", 0, "probe: encode+decode of one run's pending, sync, ack and result messages, ÷ tasks"},
	{"msgcodec.allocs_per_msg", "count", "lower", 0, "probe: allocations of that replay ÷ messages"},
	{"msgcodec.remote_frame_ns_per_task", "ns", "lower", 0, "probe: encode+decode of the task-batch and result frames two agents would exchange, ÷ tasks"},

	{"journal.append_ns_per_rec", "ns", "lower", 0, "probe: AppendRaw of the run's state records into a segmented journal"},
	{"journal.records_per_task", "count", "lower", 0, "counter: journal sequence at run end ÷ tasks (0 without a journal)"},
	{"journal.bytes_per_task", "B", "lower", 0, "probe: segment bytes of that replay ÷ tasks"},
	{"journal.replay_ns_per_rec", "ns", "lower", 0, "probe: ReplayDir plus state-record decode of the same journal"},

	{"statedb.commit_ns_per_transition", "ns", "lower", 0, "probe: SaveState of the run's transitions"},
	{"statedb.snapshot_write_ms", "ms", "lower", 0, "probe: WriteSnapshot of the run's final entity set"},
	{"statedb.snapshot_load_ms", "ms", "lower", 0, "probe: LoadLatestSnapshot of it"},
	{"statedb.snapshots_per_run", "count", "lower", 0, "counter: snapshots the run wrote (0 without a journal)"},

	{"core.echo_tasks_per_s", "1/s", "higher", 0, "probe: the workload's app through the core over an instant echo RTS"},
	{"core.self_ns_per_task", "ns", "lower", 0, "echo-run time per task minus the broker and msgcodec probes"},
	{"core.transitions_per_task", "count", "lower", 0, "traced pass: committed transitions of all entities ÷ tasks"},
	{"core.snapshot_call_us", "us", "lower", 0, "probe: AppManager.Snapshot on the finished echo run"},
	{"core.events_on_tasks_per_s", "1/s", "higher", 0, "probe: the echo run with one all-kinds subscriber attached"},
	{"core.hop_enqueue_p50_us", "us", "lower", 0, "traced pass: SCHEDULING→SCHEDULED commit gap"},
	{"core.hop_enqueue_p99_us", "us", "lower", 0, ""},
	{"core.hop_pending_p50_us", "us", "lower", 0, "traced pass: SCHEDULED→SUBMITTING"},
	{"core.hop_pending_p99_us", "us", "lower", 0, ""},
	{"core.hop_submit_p50_us", "us", "lower", 0, "traced pass: SUBMITTING→SUBMITTED"},
	{"core.hop_submit_p99_us", "us", "lower", 0, ""},
	{"core.hop_dequeue_p50_us", "us", "lower", 0, "traced pass: EXECUTED→DONE"},
	{"core.hop_dequeue_p99_us", "us", "lower", 0, ""},
	{"core.task_latency_p50_us", "us", "lower", 0, "traced pass: SCHEDULING commit to DONE commit"},
	{"core.task_latency_p99_us", "us", "lower", 0, ""},

	{"rts.direct_tasks_per_s", "1/s", "higher", 0, "probe: PilotRTS Submit→Completions of the workload's batches, no core"},
	{"rts.submit_busy_ns_per_task", "ns", "lower", 0, "probe: time inside Submit ÷ tasks"},
	{"rts.drain_wait_ns_per_task", "ns", "lower", 0, "probe: time outside Submit until the last completion ÷ tasks"},
	{"rts.steal_ratio", "ratio", "lower", 0, "probe: store steals ÷ scheduler pulls"},
	{"rts.pulls_per_ktask", "count", "lower", 0, "probe: scheduler pulls per 1000 tasks"},
	{"rts.hop_execute_p50_us", "us", "lower", 0, "traced pass: SUBMITTED→EXECUTED (RTS plus the done queue)"},
	{"rts.hop_execute_p99_us", "us", "lower", 0, ""},

	{"transport.frame_rtt_us", "us", "lower", 0, "probe: one small frame there and back over loopback TCP; median"},
	{"transport.frames_per_task", "count", "lower", 0, "probe: frames of the remote-frame replay ÷ tasks"},
	{"transport.bytes_per_task", "B", "lower", 0, "probe: framed bytes of that replay ÷ tasks"},

	{"remoterts.batch_rtt_us", "us", "lower", 0, "probe: 64-task batch through proxy and agent to an echo RTS and back; median"},
	{"remoterts.allocs_per_batch", "count", "lower", 0, "probe: allocations per such round trip"},
	{"remoterts.adopt_ms", "ms", "lower", 0, "probe: NewProxy+Start against a running agent; median"},

	{"daemon.inproc_run_ms", "ms", "lower", 0, "probe: Daemon.Submit+Wait of the daemon app, one caller; median"},
	{"daemon.socket_tax_ms", "ms", "lower", 0, "probe: the same over entk.Client and the unix socket, minus inproc"},
	{"daemon.run_latency_p99_ms", "ms", "lower", 0, "open loop: due time to Wait return, p99 (a diagnostic: it swings)"},
	{"daemon.gen_lag_p99_ms", "ms", "lower", 0, "open loop: how late the generator sent, p99"},
	{"daemon.achieved_over_offered", "ratio", "higher", 0, "open loop: completed rate ÷ offered rate"},
	{"appjson.parse_build_us", "us", "lower", 0, "probe: Parse+Build of the daemon app; median"},

	{"entk.new_appmanager_ms", "ms", "lower", 0, "probe: entk.NewAppManager on the null host; median"},

	{"bench.unexplained_share", "ratio", "lower", 0, "share of the end-to-end per-task (daemon-open: per-run) time the on-path layer probes do not account for; negative when layers overlap"},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0, "untraced ÷ traced throughput (daemon-open: traced ÷ untraced p50 latency)"},
	{"bench.cpu_us_per_task", "us", "lower", 0, "untraced baseline: rusage user+sys over Start→Wait ÷ tasks; median over reps, as measured"},
	{"bench.machine_slowdown", "ratio", "lower", 0, "calibrator sample median ÷ its reference: how much slower than the reference box the machine ran beside the probes"},
}

func sortedKeys(m map[string]value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
