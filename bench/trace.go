package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/vclock"
)

// The traced pass attaches one all-kinds event subscriber per run and turns
// the committed task transitions into spans. Events carry the virtual
// commit instant; the harness owns (or knows) every clock's scale, so it
// maps that instant back to wall time exactly instead of stamping on
// receipt, which would add the subscriber's own hand-off delay.

// hop names the gap between two consecutively committed task states.
type hop struct {
	name     string // metric stem: <layer>.hop_<name>
	layer    string
	from, to core.TaskState
}

// taskStates are a clean task's committed states in order; a traced task's
// commit times are kept in an array indexed the same way.
var taskStates = []core.TaskState{core.TaskScheduling, core.TaskScheduled, core.TaskSubmitting,
	core.TaskSubmitted, core.TaskExecuted, core.TaskDone}

func stateIndex(s core.TaskState) int {
	for i, t := range taskStates {
		if t == s {
			return i
		}
	}
	return -1
}

// commitTimes holds one task's commit time per taskStates entry (0: unseen;
// a real commit is never at the clock's very first nanosecond).
type commitTimes [6]time.Duration

// hops is the committed-transition → hop → layer table of the README.
var hops = []hop{
	{"enqueue", "core", core.TaskScheduling, core.TaskScheduled},
	{"pending", "core", core.TaskScheduled, core.TaskSubmitting},
	{"submit", "core", core.TaskSubmitting, core.TaskSubmitted},
	{"execute", "rts", core.TaskSubmitted, core.TaskExecuted},
	{"dequeue", "core", core.TaskExecuted, core.TaskDone},
}

// span is one committed transition of one entity.
type span struct {
	Run  string
	UID  string
	From string
	To   string
	T    time.Duration // wall time since the run's clock started
}

// tracer accumulates hop samples over every traced run and keeps the spans
// of the most recent one for trace.json.
type tracer struct {
	mu        sync.Mutex           // daemon-open collects many runs at once
	hopUS     map[string][]float64 // hop name -> samples, µs
	latencyUS []float64            // SCHEDULING commit -> DONE commit, µs
	runs      int                  // runs collected
	events    int                  // transitions seen, all kinds
	drops     uint64               // subscriber ring drops (must stay 0)
	last      []span
}

func newTracer() *tracer { return &tracer{hopUS: make(map[string][]float64)} }

// wallOf maps a virtual commit instant back to wall time since clock start;
// every clock in the benchmark runs at timeScale.
func wallOf(v time.Time) time.Duration {
	return time.Duration(float64(v.Sub(vclock.Epoch)) * timeScale.Seconds())
}

// eventBuffer sizes a subscriber ring to hold every event a run of sh can
// publish (six task transitions, three per stage, two per pipeline, plus
// slack), so a subscriber that never drained would still drop nothing.
func eventBuffer(sh shape) int {
	return 6*sh.n() + 3*sh.pipelines*sh.stages + 2*sh.pipelines + 64
}

// collect drains one run's subscription to completion and folds it into
// the tracer. It returns when the run closes the stream.
func (tr *tracer) collect(runName string, sub *core.EventSub, keepSpans bool) {
	at := make(map[string]*commitTimes)
	var spans []span
	events := 0
	for ev := range sub.C() {
		events++
		t := wallOf(ev.VTime)
		if keepSpans {
			spans = append(spans, span{Run: runName, UID: ev.UID, From: ev.From, To: ev.To, T: t})
		}
		if ev.Kind != core.EventTask {
			continue
		}
		i := stateIndex(core.TaskState(ev.To))
		if i < 0 {
			continue // FAILED or CANCELED: the run's own checks report it
		}
		ct := at[ev.UID]
		if ct == nil {
			ct = new(commitTimes)
			at[ev.UID] = ct
		}
		ct[i] = t
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.runs++
	tr.events += events
	tr.drops += sub.Dropped()
	for _, ct := range at {
		for _, h := range hops {
			if a, b := ct[stateIndex(h.from)], ct[stateIndex(h.to)]; a != 0 && b != 0 {
				tr.hopUS[h.name] = append(tr.hopUS[h.name], us(b-a))
			}
		}
		if a, b := ct[0], ct[len(ct)-1]; a != 0 && b != 0 {
			tr.latencyUS = append(tr.latencyUS, us(b-a))
		}
	}
	if keepSpans {
		tr.last = spans
	}
}

// metrics renders the hop and task-latency percentiles.
func (tr *tracer) metrics(out map[string]value) {
	for _, h := range hops {
		s := tr.hopUS[h.name]
		out[h.layer+".hop_"+h.name+"_p50_us"] = value{median(s), "us", len(s)}
		out[h.layer+".hop_"+h.name+"_p99_us"] = value{percentile(s, 99), "us", len(s)}
	}
	out["core.task_latency_p50_us"] = value{median(tr.latencyUS), "us", len(tr.latencyUS)}
	out["core.task_latency_p99_us"] = value{percentile(tr.latencyUS, 99), "us", len(tr.latencyUS)}
}

// write stores the hop summary and the last traced run's spans as JSON.
func (tr *tracer) write(path, workload string, summary map[string]value) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"events\":%d,\"drops\":%d,\"metrics\":{", workload, tr.events, tr.drops)
	for i, name := range sortedKeys(summary) {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:%g", name, summary[name].v)
	}
	w.WriteString("},\"spans\":[")
	for i, s := range tr.last {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%q,%q,%q,%q,%d]", s.Run, s.UID, s.From, s.To, s.T.Nanoseconds())
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
