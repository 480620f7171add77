package entk

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/remoterts"
	"repro/internal/rts"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// startTestAgent boots an in-process entk-agent equivalent: its own scaled
// clock, simulated CI and SAGA session, hosting one pilot RTS incarnation
// per adopting manager. With auditDir set, each incarnation journals its
// store to rts-audit-NNN.log so exactly-once can be verified after a kill.
func startTestAgent(t *testing.T, name string, scale time.Duration, cores int, auditDir string) *remoterts.Agent {
	t.Helper()
	clock := vclock.NewScaled(scale)
	spec, err := hpc.LookupSpec("supermic")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := hpc.NewCluster(spec, clock)
	if err != nil {
		t.Fatal(err)
	}
	session := saga.NewSession()
	if err := session.Register(saga.NewClusterAdapter(cluster)); err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	registry := workload.NewRegistry()
	var incarnation atomic.Int64
	factory := func(res core.ResourceDesc) (core.RTS, error) {
		cfg := rts.Config{
			Resource: res,
			Clock:    clock,
			Session:  session,
			Registry: registry,
			Seed:     1,
		}
		if auditDir != "" {
			cfg.StorePath = filepath.Join(auditDir, fmt.Sprintf("rts-audit-%03d.log", incarnation.Add(1)))
		}
		return rts.New(cfg)
	}
	a, err := remoterts.NewAgent(remoterts.AgentConfig{
		Addr:    "tcp:127.0.0.1:0",
		Name:    name,
		Factory: factory,
		// Walltime is virtual: at sub-millisecond time scales a 1h pilot
		// dies within a second of wall time, so give the agent's pilots
		// the CI's full 72h budget to survive wall-clock control-plane
		// delays (dial grace, failover detection).
		Resource:          core.ResourceDesc{Resource: "supermic", Cores: cores, Walltime: 72 * time.Hour},
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		cluster.Close()
	})
	return a
}

// remoteApp builds a one-stage ensemble of short tasks.
func remoteApp(tasks int, duration time.Duration) *Pipeline {
	p := NewPipeline("remote")
	s := NewStage("sweep")
	for i := 0; i < tasks; i++ {
		tk := NewTask(fmt.Sprintf("t%03d", i))
		tk.Executable = "sleep"
		tk.Duration = duration
		s.AddTask(tk)
	}
	p.AddStage(s)
	return p
}

// TestRemoteTwoAgents drives one manager against two remote agents over
// loopback TCP: the run must complete with every task DONE, work striped
// across both agents, and no frames stranded in flight.
func TestRemoteTwoAgents(t *testing.T) {
	scale := 200 * time.Microsecond
	a1 := startTestAgent(t, "agent-1", scale, 8, "")
	a2 := startTestAgent(t, "agent-2", scale, 8, "")

	am, err := NewAppManager(AppConfig{
		Resource:     Resource{Name: "supermic", Cores: 16, Walltime: time.Hour},
		TimeScale:    scale,
		HostName:     "null",
		RemoteAgents: []string{a1.Addr(), a2.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 32
	if err := am.AddPipelines(remoteApp(total, 2*time.Second)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	snap := am.Snapshot()
	if snap.TasksDone != total {
		t.Fatalf("conservation: %d/%d tasks done", snap.TasksDone, total)
	}
	if snap.Utilization.TasksInFlight != 0 {
		t.Fatalf("%d frames stranded in flight after the run", snap.Utilization.TasksInFlight)
	}
	if a1.Served() == 0 || a2.Served() == 0 {
		t.Fatalf("striping skipped an agent: served %d / %d", a1.Served(), a2.Served())
	}
	if a1.Served()+a2.Served() != total {
		t.Fatalf("agents served %d + %d results, want %d", a1.Served(), a2.Served(), total)
	}
}

// readAuditPushes replays every incarnation audit log in dir and returns
// the pushed task UIDs per incarnation (key = log index, 1-based).
func readAuditPushes(t *testing.T, dir string) map[int][]string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "rts-audit-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(logs)
	out := map[int][]string{}
	for i, path := range logs {
		var uids []string
		err := journal.Replay(path, func(rec journal.Record) error {
			if rec.Type != "rts.store" {
				return nil
			}
			sr, err := msgcodec.DecodeStoreRec(rec.Data)
			if err != nil {
				return err
			}
			if sr.Op == "push" {
				uids = append(uids, sr.UIDs...)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[i+1] = uids
	}
	return out
}

// TestRemoteAgentDeathMidStage kills one of two agents while a stage is in
// flight. The heartbeat must declare the proxy dead, build a replacement
// that re-adopts the surviving agent (purging its previous incarnation),
// and resubmit the lost tasks — completing the run with every task DONE
// exactly once: no task that finished before the kill may be pushed to any
// post-kill RTS incarnation.
func TestRemoteAgentDeathMidStage(t *testing.T) {
	scale := 200 * time.Microsecond
	audit := t.TempDir()
	a1 := startTestAgent(t, "victim", scale, 8, "")
	a2 := startTestAgent(t, "survivor", scale, 8, audit)

	am, err := NewAppManager(AppConfig{
		Resource:     Resource{Name: "supermic", Cores: 16, Walltime: time.Hour},
		TimeScale:    scale,
		HostName:     "null",
		TaskRetries:  8,
		RTSRestarts:  4,
		RemoteAgents: []string{a1.Addr(), a2.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 80
	if err := am.AddPipelines(remoteApp(total, 5*time.Second)); err != nil {
		t.Fatal(err)
	}

	// Watch task completions; once a few tasks are DONE (the stage is
	// genuinely mid-flight), snapshot the DONE set and kill agent 1.
	sub := am.Subscribe(EventFilter{Kinds: []EventKind{EventTask}})
	var mu sync.Mutex
	preKillDone := map[string]bool{}
	killed := make(chan struct{})
	go func() {
		done := 0
		for ev := range sub.C() {
			if ev.To != string(TaskDone) {
				continue
			}
			done++
			if done <= 4 {
				// These completions committed before the kill below.
				mu.Lock()
				preKillDone[ev.UID] = true
				mu.Unlock()
			}
			if done == 4 {
				a1.Close()
				close(killed)
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	select {
	case <-killed:
	default:
		t.Fatal("run finished before the kill fired — shrink the task durations")
	}

	snap := am.Snapshot()
	if snap.TasksDone != total {
		t.Fatalf("conservation after agent death: %d/%d tasks done (%d failed)",
			snap.TasksDone, total, snap.TasksFailed)
	}
	if snap.Utilization.TasksInFlight != 0 {
		t.Fatalf("%d frames stranded in flight after the run", snap.Utilization.TasksInFlight)
	}
	if n := a2.Incarnations(); n < 2 {
		t.Fatalf("survivor hosted %d RTS incarnations, want >= 2 (purge-on-reconnect)", n)
	}

	// Exactly-once: the post-kill incarnations' audit logs must not contain
	// any task that completed before the kill — the manager only resubmits
	// lost in-flight work, never finished work.
	pushes := readAuditPushes(t, audit)
	if len(pushes) < 2 {
		t.Fatalf("expected >= 2 audit logs, got %d", len(pushes))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(preKillDone) == 0 {
		t.Fatal("no pre-kill completions recorded")
	}
	for inc, uids := range pushes {
		if inc == 1 {
			continue
		}
		for _, uid := range uids {
			if preKillDone[uid] {
				t.Fatalf("task %s was DONE before the kill but re-pushed to incarnation %d", uid, inc)
			}
		}
	}
}

// TestRemoteAttachStreams covers the event fan-out path end to end: a run
// serving its event stream over TCP, a remote subscriber attached to it,
// and the per-peer accounting the server keeps.
func TestRemoteAttachStreams(t *testing.T) {
	scale := 200 * time.Microsecond
	a1 := startTestAgent(t, "agent-1", scale, 8, "")

	am, err := NewAppManager(AppConfig{
		Resource:     Resource{Name: "supermic", Cores: 8, Walltime: time.Hour},
		TimeScale:    scale,
		HostName:     "null",
		RemoteAgents: []string{a1.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(remoteApp(8, 2*time.Second)); err != nil {
		t.Fatal(err)
	}
	es, err := remoterts.NewEventServer("tcp:127.0.0.1:0", am.Subscribe)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	stream, err := remoterts.AttachEvents(es.Addr(), EventFilter{
		Kinds: []EventKind{EventPipeline, EventStage},
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}

	// The remote subscriber must observe the pipeline reaching DONE.
	sawPipelineDone := false
	deadline := time.After(10 * time.Second)
	for !sawPipelineDone {
		select {
		case ev, ok := <-stream.C():
			if !ok {
				t.Fatal("stream ended before the pipeline finished")
			}
			if ev.Kind == EventPipeline && ev.To == string(PipelineDone) {
				sawPipelineDone = true
			}
		case <-deadline:
			t.Fatal("remote subscriber never saw the pipeline finish")
		}
	}

	peers := es.PeerStats()
	if len(peers) != 1 {
		t.Fatalf("PeerStats has %d entries, want 1: %+v", len(peers), peers)
	}
	if peers[0].Sent == 0 {
		t.Fatalf("peer accounting recorded no sent events: %+v", peers[0])
	}
}
