package repro

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remoterts"
)

// benchEchoRTS completes every submitted task immediately, so the three
// arms of BenchmarkRemoteRoundTrip measure pure control-plane cost: the
// manager→RTS submit path and the result path back, with zero scheduling
// or execution latency in between.
type benchEchoRTS struct {
	mu       sync.Mutex
	out      chan core.TaskResult
	stopped  bool
	alive    atomic.Bool
	stopOnce sync.Once
}

func newBenchEchoRTS() *benchEchoRTS {
	e := &benchEchoRTS{out: make(chan core.TaskResult, 4096)}
	e.alive.Store(true)
	return e
}

func (e *benchEchoRTS) Start(ctx context.Context) error     { return nil }
func (e *benchEchoRTS) Completions() <-chan core.TaskResult { return e.out }
func (e *benchEchoRTS) Alive() bool                         { return e.alive.Load() }
func (e *benchEchoRTS) Stats() core.RTSStats                { return core.RTSStats{} }

func (e *benchEchoRTS) Submit(tasks []core.TaskDescription) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return context.Canceled
	}
	for _, t := range tasks {
		e.out <- core.TaskResult{UID: t.UID, Started: time.Unix(1, 0), Finished: time.Unix(2, 0)}
	}
	return nil
}

func (e *benchEchoRTS) Stop() error {
	e.stopOnce.Do(func() {
		e.mu.Lock()
		e.stopped = true
		e.mu.Unlock()
		close(e.out)
	})
	return nil
}

// roundTrip submits one 64-task batch and drains the 64 results.
func roundTrip(b *testing.B, r core.RTS, tasks []core.TaskDescription) {
	b.Helper()
	if err := r.Submit(tasks); err != nil {
		b.Fatal(err)
	}
	for n := 0; n < len(tasks); n++ {
		if _, ok := <-r.Completions(); !ok {
			b.Fatal("completions closed mid-drain")
		}
	}
}

// BenchmarkRemoteRoundTrip prices the network tax of the remote control
// plane: one 64-task batched submit plus the 64 results back, against an
// echo RTS reached (a) directly in-process, (b) through an agent over a
// unix socket, (c) through an agent over loopback TCP. The remote arms pay
// codec + framing + kernel socket round-trips; the spread between (a) and
// (b)/(c) is the per-batch overhead a deployment accepts for putting the
// pilot on another machine.
func BenchmarkRemoteRoundTrip(b *testing.B) {
	const batch = 64
	tasks := make([]core.TaskDescription, batch)
	for i := range tasks {
		tasks[i] = core.TaskDescription{UID: fmt.Sprintf("task.%04d", i), Executable: "sleep"}
	}

	b.Run("inproc", func(b *testing.B) {
		r := newBenchEchoRTS()
		defer r.Stop() //nolint:errcheck
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip(b, r, tasks)
		}
	})

	remoteArm := func(addr string) func(b *testing.B) {
		return func(b *testing.B) {
			agent, err := remoterts.NewAgent(remoterts.AgentConfig{
				Addr:    addr,
				Name:    "bench-agent",
				Factory: func(core.ResourceDesc) (core.RTS, error) { return newBenchEchoRTS(), nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			defer agent.Close()
			proxy, err := remoterts.NewProxy(remoterts.Config{Addrs: []string{agent.Addr()}})
			if err != nil {
				b.Fatal(err)
			}
			defer proxy.Stop() //nolint:errcheck
			if err := proxy.Start(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip(b, proxy, tasks)
			}
		}
	}

	b.Run("unix", remoteArm("unix:"+filepath.Join(b.TempDir(), "bench.sock")))
	b.Run("tcp", remoteArm("tcp:127.0.0.1:0"))
}
