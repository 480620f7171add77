package remoterts

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// echoRTS is a minimal in-process RTS: every submitted task completes
// immediately with exit code 0. It gives the transport tests a runtime
// system with zero scheduling latency.
type echoRTS struct {
	mu        sync.Mutex
	out       chan core.TaskResult
	stopped   bool
	alive     atomic.Bool
	submitted atomic.Int64
	stopOnce  sync.Once
}

func newEchoRTS() *echoRTS {
	e := &echoRTS{out: make(chan core.TaskResult, 4096)}
	e.alive.Store(true)
	return e
}

func (e *echoRTS) Name() string                        { return "echo" }
func (e *echoRTS) Start(ctx context.Context) error     { return nil }
func (e *echoRTS) Completions() <-chan core.TaskResult { return e.out }
func (e *echoRTS) Alive() bool                         { return e.alive.Load() }
func (e *echoRTS) Stats() core.RTSStats {
	return core.RTSStats{TasksSubmitted: int(e.submitted.Load())}
}

func (e *echoRTS) Submit(tasks []core.TaskDescription) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return context.Canceled
	}
	for _, t := range tasks {
		e.out <- core.TaskResult{UID: t.UID, Started: time.Unix(1, 0), Finished: time.Unix(2, 0)}
	}
	e.submitted.Add(int64(len(tasks)))
	return nil
}

func (e *echoRTS) Stop() error {
	e.stopOnce.Do(func() {
		e.mu.Lock()
		e.stopped = true
		e.mu.Unlock()
		close(e.out)
	})
	return nil
}

func echoFactory(res core.ResourceDesc) (core.RTS, error) { return newEchoRTS(), nil }

func startAgent(t *testing.T, addr string) *Agent {
	t.Helper()
	a, err := NewAgent(AgentConfig{
		Addr:              addr,
		Name:              "test-agent",
		Factory:           echoFactory,
		Resource:          core.ResourceDesc{Resource: "titan", Cores: 16, GPUs: 1},
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

func startProxy(t *testing.T, addrs ...string) *Proxy {
	t.Helper()
	p, err := NewProxy(Config{
		Addrs:             addrs,
		StartTimeout:      2 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() }) //nolint:errcheck
	return p
}

func submitAndDrain(t *testing.T, p *Proxy, n int) map[string]int {
	t.Helper()
	tasks := make([]core.TaskDescription, n)
	for i := range tasks {
		tasks[i] = core.TaskDescription{UID: uid(i), Executable: "sleep"}
	}
	if err := p.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	timeout := time.After(5 * time.Second)
	for len(got) < n {
		select {
		case res, ok := <-p.Completions():
			if !ok {
				t.Fatalf("completions closed after %d/%d results", len(got), n)
			}
			got[res.UID]++
		case <-timeout:
			t.Fatalf("timed out after %d/%d results", len(got), n)
		}
	}
	return got
}

func uid(i int) string {
	return "task." + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// waitFor polls cond until it holds or the deadline passes. The agents'
// served counters are bumped just after the result frame is queued, so a
// proxy can observe results marginally before the counter settles.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestProxyRoundTripTCP(t *testing.T) {
	a := startAgent(t, "tcp:127.0.0.1:0")
	p := startProxy(t, a.Addr())
	got := submitAndDrain(t, p, 64)
	for id, c := range got {
		if c != 1 {
			t.Fatalf("task %s completed %d times", id, c)
		}
	}
	waitFor(t, "served counter", func() bool { return a.Served() == 64 })
	if !p.Alive() {
		t.Fatal("proxy died during a clean round trip")
	}
}

func TestProxyRoundTripUnix(t *testing.T) {
	sock := t.TempDir() + "/agent.sock"
	a := startAgent(t, "unix:"+sock)
	p := startProxy(t, a.Addr())
	if got := submitAndDrain(t, p, 32); len(got) != 32 {
		t.Fatalf("got %d results", len(got))
	}
}

func TestProxyStripesAcrossAgents(t *testing.T) {
	a1 := startAgent(t, "tcp:127.0.0.1:0")
	a2 := startAgent(t, "tcp:127.0.0.1:0")
	p := startProxy(t, a1.Addr(), a2.Addr())
	submitAndDrain(t, p, 50)
	waitFor(t, "both agents to serve tasks", func() bool {
		return a1.Served() > 0 && a2.Served() > 0 && a1.Served()+a2.Served() == 50
	})
	u := p.Stats().Utilization
	if u.CoresTotal == 0 {
		t.Fatal("utilization did not aggregate agent capacity")
	}
}

func TestProxyRejectsLocalFunc(t *testing.T) {
	a := startAgent(t, "tcp:127.0.0.1:0")
	p := startProxy(t, a.Addr())
	err := p.Submit([]core.TaskDescription{{UID: "task.x", LocalFunc: func() error { return nil }}})
	if err == nil || !strings.Contains(err.Error(), "LocalFunc") {
		t.Fatalf("LocalFunc task accepted by remote proxy: %v", err)
	}
	if !p.Alive() {
		t.Fatal("a rejected submission must not kill the proxy")
	}
}

func TestProxyDiesWhenAgentDies(t *testing.T) {
	a := startAgent(t, "tcp:127.0.0.1:0")
	p := startProxy(t, a.Addr())
	submitAndDrain(t, p, 4)
	a.Close()
	deadline := time.After(5 * time.Second)
	for p.Alive() {
		select {
		case <-deadline:
			t.Fatal("proxy still alive after its only agent died")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if p.Err() == nil {
		t.Fatal("dead proxy reports no cause")
	}
	if err := p.Submit([]core.TaskDescription{{UID: "task.y", Executable: "sleep"}}); err == nil {
		t.Fatal("dead proxy accepted a submission")
	}
}

func TestProxyDiesWhenAnyAgentDies(t *testing.T) {
	a1 := startAgent(t, "tcp:127.0.0.1:0")
	a2 := startAgent(t, "tcp:127.0.0.1:0")
	p := startProxy(t, a1.Addr(), a2.Addr())
	submitAndDrain(t, p, 8)
	a1.Close()
	deadline := time.After(5 * time.Second)
	for p.Alive() {
		select {
		case <-deadline:
			t.Fatal("proxy survived the death of one of two agents")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestAgentPurgesOnReconnect(t *testing.T) {
	a := startAgent(t, "tcp:127.0.0.1:0")
	p1 := startProxy(t, a.Addr())
	submitAndDrain(t, p1, 4)
	p1.Stop() //nolint:errcheck

	// A second manager (the failover replacement) adopts the same agent:
	// the agent must build a fresh RTS incarnation.
	p2 := startProxy(t, a.Addr())
	submitAndDrain(t, p2, 4)
	if n := a.Incarnations(); n != 2 {
		t.Fatalf("agent built %d incarnations, want 2", n)
	}
}

func TestProxyStartNoAgents(t *testing.T) {
	p, err := NewProxy(Config{Addrs: []string{"tcp:127.0.0.1:1"}, StartTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(context.Background()); err == nil {
		t.Fatal("Start succeeded with no reachable agent")
	}
}

func TestProxyLateAgentJoins(t *testing.T) {
	a1 := startAgent(t, "tcp:127.0.0.1:0")
	a2 := startAgent(t, "tcp:127.0.0.1:0")
	late := a2.Addr()
	a2.Close() // not up yet when the proxy starts

	p := startProxy(t, a1.Addr(), late)
	submitAndDrain(t, p, 4) // only a1 is connected; the batch still lands

	// The late agent appears on the same address; the background redial
	// loop should adopt it.
	a3, err := NewAgent(AgentConfig{
		Addr:              late,
		Factory:           echoFactory,
		Resource:          core.ResourceDesc{Cores: 8},
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Skipf("could not rebind %s: %v", late, err)
	}
	t.Cleanup(a3.Close)
	deadline := time.After(5 * time.Second)
	for len(p.livePeers()) < 2 {
		select {
		case <-deadline:
			t.Fatal("late agent never joined the pool")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewProxy(Config{}); err == nil {
		t.Fatal("empty Config accepted")
	}
	if _, err := NewAgent(AgentConfig{Addr: "tcp:127.0.0.1:0"}); err == nil {
		t.Fatal("agent without factory accepted")
	}
}
