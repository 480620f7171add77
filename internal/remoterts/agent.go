package remoterts

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/transport"
)

// AgentConfig assembles an Agent server.
type AgentConfig struct {
	// Addr is the listen endpoint ("tcp:host:port", "unix:/path",
	// "tcp:127.0.0.1:0" for an ephemeral port). Required.
	Addr string
	// Name labels the agent in handshakes.
	Name string
	// Factory builds the hosted RTS, one instance per manager connection.
	// Required.
	Factory core.RTSFactory
	// Resource is handed to Factory and sizes the capacity advertised in
	// the handshake.
	Resource core.ResourceDesc
	// HeartbeatInterval paces both the transport keepalive and the stats
	// reports (default 1s); the manager-death deadline is 4× the interval.
	HeartbeatInterval time.Duration
}

// Agent hosts an RTS behind a listener. It serves one manager at a time: a
// new manager connection purges the running RTS instance — stopping it and
// discarding its in-flight tasks — and factory-builds a fresh one, the
// paper's recovery rule ("purges any process left over by the failed RTS")
// that makes reconnect-after-failover safe against double execution.
type Agent struct {
	cfg AgentConfig
	ln  net.Listener

	mu     sync.Mutex
	sess   *agentSession
	closed bool

	closeOnce sync.Once
	acceptWG  sync.WaitGroup

	incarnations atomic.Int64
	served       atomic.Int64
}

// NewAgent opens the listener and starts accepting managers.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Factory == nil {
		return nil, errors.New("remoterts: agent requires a Factory")
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	ln, err := transport.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	a := &Agent{cfg: cfg, ln: ln}
	a.acceptWG.Add(1)
	go a.acceptLoop()
	return a, nil
}

// Addr returns the bound endpoint in dialable form (scheme prefix
// included), which resolves ephemeral ports.
func (a *Agent) Addr() string { return transport.Addr(a.ln) }

// Incarnations counts RTS instances built so far (one per adopted manager).
func (a *Agent) Incarnations() int { return int(a.incarnations.Load()) }

// Served counts task results this agent has shipped back across all
// incarnations.
func (a *Agent) Served() int { return int(a.served.Load()) }

// Close stops the listener and purges the current session, if any.
func (a *Agent) Close() {
	a.closeOnce.Do(func() {
		a.mu.Lock()
		a.closed = true
		sess := a.sess
		a.sess = nil
		a.mu.Unlock()
		a.ln.Close() //nolint:errcheck
		if sess != nil {
			sess.stop()
		}
		a.acceptWG.Wait()
	})
}

// Wait blocks until the listener shuts down (Close or listener error).
func (a *Agent) Wait() { a.acceptWG.Wait() }

func (a *Agent) acceptLoop() {
	defer a.acceptWG.Done()
	for {
		nc, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.adopt(nc)
	}
}

// adopt runs a manager handshake on a fresh connection, purges the previous
// session, builds a new RTS incarnation and spawns its pump loops. Serving
// from the accept goroutine serializes adoptions: the old instance is fully
// stopped before the new one answers.
func (a *Agent) adopt(nc net.Conn) {
	tc := transport.NewConn(nc, transport.Options{
		Name:              "manager",
		HeartbeatInterval: a.cfg.HeartbeatInterval,
	})
	body, err := tc.Recv()
	if err != nil {
		tc.Close() //nolint:errcheck
		return
	}
	h, err := msgcodec.DecodeHello(body)
	if err != nil || h.Role != "manager" || h.Proto != msgcodec.RemoteProto {
		tc.Close() //nolint:errcheck
		return
	}

	// Purge: the previous manager (or its failed predecessor) loses its
	// RTS instance and every in-flight task in it.
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		tc.Close() //nolint:errcheck
		return
	}
	old := a.sess
	a.sess = nil
	a.mu.Unlock()
	if old != nil {
		old.stop()
	}

	rts, err := a.cfg.Factory(a.cfg.Resource)
	if err != nil {
		tc.Close() //nolint:errcheck
		return
	}
	if err := rts.Start(context.Background()); err != nil {
		rts.Stop() //nolint:errcheck // release what the failed Start acquired
		tc.Close() //nolint:errcheck
		return
	}
	a.incarnations.Add(1)
	if err := tc.Send(msgcodec.EncodeHello(msgcodec.Hello{
		Proto: msgcodec.RemoteProto,
		Role:  "agent",
		Name:  a.cfg.Name,
		Cores: a.cfg.Resource.Cores,
		GPUs:  a.cfg.Resource.GPUs,
	})); err != nil {
		tc.Close() //nolint:errcheck
		rts.Stop() //nolint:errcheck
		return
	}

	s := &agentSession{agent: a, tc: tc, rts: rts, stopCh: make(chan struct{})}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		s.stop()
		return
	}
	a.sess = s
	a.mu.Unlock()
	go s.recvLoop()
	go s.resultLoop()
	go s.statsLoop()
}

// agentSession is one manager's tenure: a connection, an RTS incarnation
// and the three pump loops tying them together.
type agentSession struct {
	agent *Agent
	tc    *transport.Conn
	rts   core.RTS

	stopCh   chan struct{}
	stopOnce sync.Once
}

// stop tears the session down: connection closed, RTS stopped (which closes
// its completion channel and unblocks resultLoop). Idempotent; safe to call
// from any of the session's own loops.
func (s *agentSession) stop() {
	s.stopOnce.Do(func() {
		close(s.stopCh)
		s.tc.Close() //nolint:errcheck
		s.rts.Stop() //nolint:errcheck
	})
}

// recvLoop decodes task batches from the manager into RTS submissions. Any
// connection or decode error, or a rejected submission, ends the tenure —
// the manager's proxy will observe the disconnect and fail over.
func (s *agentSession) recvLoop() {
	for {
		body, err := s.tc.Recv()
		if err != nil {
			s.stop()
			return
		}
		t, ok := msgcodec.FrameType(body)
		if !ok || t != msgcodec.FrameTaskBatch {
			continue
		}
		// One slice per frame, decoded in place: the RTS keeps it (the store
		// holds the descriptions until they are pulled).
		tasks, err := msgcodec.DecodeTaskBatch(body)
		if err != nil {
			s.stop()
			return
		}
		if err := s.rts.Submit(tasks); err != nil {
			s.stop()
			return
		}
	}
}

// resultLoop drains the RTS completion channel back to the manager, one
// result frame per drain (core.DrainCompletions).
func (s *agentSession) resultLoop() {
	var batch []core.TaskResult
	for {
		if batch = core.DrainCompletions(s.rts.Completions(), batch); len(batch) == 0 {
			return // the RTS stopped
		}
		body, err := msgcodec.FormatBinary.EncodeTaskResults(batch)
		if err != nil {
			s.stop()
			return
		}
		if err := s.tc.Send(body); err != nil {
			s.stop()
			return
		}
		s.agent.served.Add(int64(len(batch)))
	}
}

// statsLoop ships a capacity/liveness report every heartbeat interval. The
// report doubles as the application-level failure signal: Alive=false tells
// the manager the hosted RTS died even though the socket is healthy.
func (s *agentSession) statsLoop() {
	ticker := time.NewTicker(s.agent.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
		}
		stats := msgcodec.AgentStats{Alive: s.rts.Alive(), RTSStats: s.rts.Stats()}
		if err := s.tc.Send(msgcodec.EncodeAgentStats(stats)); err != nil {
			s.stop()
			return
		}
		if !stats.Alive {
			// The hosted RTS died (pilot walltime, store failure). Get the
			// death notice onto the socket before ending the tenure, so the
			// manager sees the typed report rather than a bare EOF.
			s.tc.Flush() //nolint:errcheck // the tenure ends either way
			s.stop()
			return
		}
	}
}
