package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/appjson"
	"repro/internal/core"
)

// shape is an application's PST structure: pipelines × stages × tasks of
// zero-duration one-core sleep tasks with no staging, on a pilot of cores.
type shape struct {
	pipelines, stages, tasks int
	cores                    int
}

func (s shape) n() int { return s.pipelines * s.stages * s.tasks }

func (s shape) String() string {
	return fmt.Sprintf("%d×%d×%d on %d cores", s.pipelines, s.stages, s.tasks, s.cores)
}

// app is one generated application plus what the harness needs to judge
// the run: the task UID set and the per-pipeline PostExec stamps.
type app struct {
	shape shape
	pipes []*core.Pipeline
	uids  []string // every task UID, in pipeline/stage/task order
	// stamps[p] holds the wall time of every Stage.PostExec call of
	// pipeline p, in call order. The core calls PostExec under its
	// completion lock, so the appends are serialized.
	stamps [][]time.Time
	// atLast, when set, runs inside the final PostExec call: every task is
	// DONE, only the last pipeline-DONE round trip is still to come, and the
	// run's broker is still open (it closes with the run).
	atLast func()
	calls  int
}

// buildApp generates the application for sh. Every UID embeds tag, which
// the caller derives from the seed and the rep, so the program under test
// sees seed-determined inputs and Resume can match entities across
// incarnations built from the same tag.
func buildApp(sh shape, tag string) *app {
	a := &app{
		shape:  sh,
		uids:   make([]string, 0, sh.n()),
		stamps: make([][]time.Time, sh.pipelines),
	}
	for pi := 0; pi < sh.pipelines; pi++ {
		pi := pi
		p := core.NewPipeline(fmt.Sprintf("p%03d", pi))
		p.UID = fmt.Sprintf("pipeline.%s.%03d", tag, pi)
		a.stamps[pi] = make([]time.Time, 0, sh.stages)
		for si := 0; si < sh.stages; si++ {
			s := core.NewStage(fmt.Sprintf("s%04d", si))
			s.UID = fmt.Sprintf("stage.%s.%03d.%04d", tag, pi, si)
			s.PostExec = func() error {
				a.stamps[pi] = append(a.stamps[pi], time.Now())
				if a.calls++; a.calls == sh.pipelines*sh.stages && a.atLast != nil {
					a.atLast()
				}
				return nil
			}
			for ti := 0; ti < sh.tasks; ti++ {
				t := core.NewTask("t")
				t.UID = fmt.Sprintf("task.%s.%03d.%04d.%05d", tag, pi, si, ti)
				t.Executable = "sleep"
				a.uids = append(a.uids, t.UID)
				s.AddTask(t) //nolint:errcheck // a fresh stage accepts tasks
			}
			p.AddStage(s) //nolint:errcheck // a fresh pipeline accepts stages
		}
		a.pipes = append(a.pipes, p)
	}
	return a
}

// repTag names one rep's entities: the seed plus the rep ordinal.
func repTag(seed int64, rep int) string { return fmt.Sprintf("%x.%04d", uint64(seed), rep) }

// appendStageGaps appends, in µs, the gaps between consecutive PostExec calls of each
// pipeline: the stage turnaround an adaptive application pays per decision.
// A pipeline's first stage has no predecessor and contributes no sample.
func (a *app) appendStageGaps(dst []float64) []float64 {
	for _, st := range a.stamps {
		for i := 1; i < len(st); i++ {
			dst = append(dst, us(st[i].Sub(st[i-1])))
		}
	}
	return dst
}

// lastStamp is the wall time of the application's final PostExec call, the
// moment its last result was in the user's hands.
func (a *app) lastStamp() time.Time {
	var last time.Time
	for _, st := range a.stamps {
		if n := len(st); n > 0 && st[n-1].After(last) {
			last = st[n-1]
		}
	}
	return last
}

// daemonShape is the application every daemon-open run submits.
var daemonShape = shape{pipelines: 1, stages: 2, tasks: 8, cores: 8}

// daemonAppJSON renders the appjson document for one daemon run. appjson
// assigns structural UIDs itself, so the seed reaches the program through
// the entity names.
func daemonAppJSON(sh shape, rng *rand.Rand) []byte {
	doc := appjson.App{
		Resource: appjson.Resource{Name: resourceName, Cores: sh.cores, WalltimeS: int(walltime / time.Second)},
	}
	for pi := 0; pi < sh.pipelines; pi++ {
		p := appjson.Pipeline{Name: fmt.Sprintf("p%d-%08x", pi, rng.Uint32())}
		for si := 0; si < sh.stages; si++ {
			p.Stages = append(p.Stages, appjson.Stage{
				Name:  fmt.Sprintf("s%d", si),
				Tasks: []appjson.Task{{Name: "t", Executable: "sleep", Cores: 1, Copies: sh.tasks}},
			})
		}
		doc.Pipelines = append(doc.Pipelines, p)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return raw
}

// arrivalSchedule returns the due offsets of rate×window arrivals of a
// homogeneous Poisson process over [0, window), conditioned on their count:
// given the count, the arrival times of a Poisson process are the order
// statistics of uniform draws (the homogeneous case of the thinning sampler
// in PAPERS.md's IPPP entry). Fixing the count keeps the offered rate
// identical across seeds; the seed moves only where the arrivals fall.
func arrivalSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(rate * window.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(i, k int) bool { return due[i] < due[k] })
	return due
}
