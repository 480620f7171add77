// Package remoterts splits EnTK's manager from its runtime system across a
// real transport — the paper's actual deployment shape: the manager on a
// login node, pilot agents on compute nodes. Three pieces:
//
//   - Proxy is a manager-side core.RTS: an rts.Composite whose members are
//     its agent connections. It stripes task batches across the entk-agent
//     processes over internal/transport frames, and each connection's read
//     loop delivers its agent's results straight into the Proxy's channel.
//   - Agent is the process-side server hosting the real rts.PilotRTS: one
//     manager connection at a time, a fresh RTS instance per connection
//     (the paper's "purges any process left over by the failed RTS").
//   - EventServer / AttachEvents extend the in-process event stream to
//     remote subscribers, each with its own bounded drop-oldest channel.
//
// Failure model (docs/remote.md): the death of any connected agent marks the
// whole Proxy not alive. The ExecManager heartbeat then tears the Proxy down
// and factory-builds a replacement — which re-dials every agent — and
// re-injects the lost in-flight tasks through the existing resubmission
// path, exactly as it would for an in-process RTS crash. Drops are per
// agent: a dead agent's late results are dropped (a dead RTS loses its
// in-flight tasks), while a surviving agent's results keep arriving until
// the heartbeat stops the Proxy. No task is reported DONE twice: failover
// stops the dead Proxy, drains its channel and only then collects the tasks
// still in flight, and reconnecting to an agent purges whatever its previous
// incarnation was still running.
package remoterts

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/rts"
	"repro/internal/transport"
)

// Config assembles a manager-side Proxy.
type Config struct {
	// Addrs lists the agent endpoints ("tcp:host:port", "unix:/path").
	// Required, at least one.
	Addrs []string
	// StartTimeout bounds how long Start waits for the first agent to
	// answer (default 5s). Agents that are still unreachable when Start
	// returns keep being re-dialed with exponential backoff in the
	// background and join the pool when they appear.
	StartTimeout time.Duration
	// HeartbeatInterval is the transport keepalive cadence (default 1s);
	// the peer-death deadline is 4× the interval.
	HeartbeatInterval time.Duration
}

const (
	// managerName labels the manager in handshakes.
	managerName = "entk-manager"
	// fleetGrace bounds how much longer Start waits for the rest of the
	// fleet once the first agent is up (capped by StartTimeout). Keeps a
	// dead address from stalling a failover restart for the full
	// StartTimeout while still letting a simultaneously-started fleet
	// connect as a whole.
	fleetGrace = time.Second
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
)

func (c *Config) defaults() error {
	if len(c.Addrs) == 0 {
		return errors.New("remoterts: at least one agent address required")
	}
	if c.StartTimeout <= 0 {
		c.StartTimeout = 5 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = time.Second
	}
	return nil
}

// Factory returns a core.RTSFactory building a Proxy per call — what makes
// the remote control plane replaceable mid-run: the heartbeat's failover
// builds a fresh Proxy, and the fresh Proxy re-dials the agent fleet.
func Factory(cfg Config) core.RTSFactory {
	return func(res core.ResourceDesc) (core.RTS, error) {
		return NewProxy(cfg)
	}
}

// Proxy is the manager-side runtime system: core.RTS over the wire, a
// composite over one member per agent address. Stats merges the agents' last
// reports (an agent's capacity comes from its handshake until its first
// report lands) under each connection's own task counters, which see every
// submission and every result; the reports lag by up to a heartbeat.
type Proxy struct {
	rts.Composite
	cfg   Config
	peers []*peer
	upCh  chan struct{} // one tick per peer's first connection
	rr    atomic.Uint64 // task-striping cursor
	live  []int         // placement scratch: the connected peers' indices

	deathErr atomic.Pointer[error]
}

// NewProxy builds an unstarted Proxy for cfg.
func NewProxy(cfg Config) (*Proxy, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:  cfg,
		upCh: make(chan struct{}, len(cfg.Addrs)),
	}
	p.Init(p.place)
	for _, addr := range cfg.Addrs {
		pr := &peer{proxy: p, addr: addr}
		p.peers = append(p.peers, pr)
		p.Add(pr, &pr.out)
	}
	return p, nil
}

// Start implements core.RTS: dial every agent concurrently and wait for the
// fleet to come up. If some agents are still unreachable when StartTimeout
// expires, Start degrades to whatever subset connected — at least one, or
// it fails. Late agents keep being re-dialed with backoff and join the pool
// when they appear; a peer that connected and then died makes the whole
// Proxy not alive instead (see the package comment for the failover
// contract).
func (p *Proxy) Start(ctx context.Context) error {
	if err := p.Composite.Start(ctx); err != nil {
		return err
	}
	deadline := time.After(p.cfg.StartTimeout)
	var grace <-chan time.Time // armed once the first peer is up
	for up := 0; up < len(p.peers); {
		select {
		case <-p.upCh:
			up++
			if grace == nil {
				grace = time.After(min(fleetGrace, p.cfg.StartTimeout))
			}
		case <-ctx.Done():
			return ctx.Err()
		case <-grace:
			return nil // degraded start: the missing agents may join later
		case <-deadline:
			if up > 0 {
				return nil
			}
			return fmt.Errorf("remoterts: no agent reachable within %v (tried %v)", p.cfg.StartTimeout, p.cfg.Addrs)
		}
	}
	return nil
}

// place is the Proxy's Placement, an interleaved round-robin: task i goes to
// connected peer (base+i) mod L, the base rotated by one peer per batch so
// small batches do not pin the first agent. In-process closures cannot cross
// a socket, and silently dropping one would execute a different task than
// the application described, so a LocalFunc refuses the whole batch before
// any of it is sent.
func (p *Proxy) place(tasks []core.TaskDescription, place []int) error {
	for i := range tasks {
		if tasks[i].LocalFunc != nil {
			return fmt.Errorf("remoterts: task %s sets LocalFunc, which cannot be shipped to a remote agent", tasks[i].UID)
		}
	}
	p.live = p.livePeers(p.live[:0])
	if len(p.live) == 0 {
		return errors.New("remoterts: no connected agents")
	}
	base := int(p.rr.Add(1)-1) % len(p.live)
	for i := range place {
		place[i] = p.live[(base+i)%len(p.live)]
	}
	return nil
}

// livePeers appends the indices of the connected, live peers, in address
// order.
func (p *Proxy) livePeers(dst []int) []int {
	for k, pr := range p.peers {
		if pr.conn() != nil && pr.Alive() {
			dst = append(dst, k)
		}
	}
	return dst
}

// Err reports why the Proxy died — its first agent's death — nil while
// healthy.
func (p *Proxy) Err() error {
	if err := p.deathErr.Load(); err != nil {
		return *err
	}
	return nil
}

// peer is one agent endpoint, the Proxy's member for it: its connection, its
// latest report, its own Outbox (joined to the Proxy's), and the
// dial/handshake loop that brings it up and then reads its frames.
type peer struct {
	proxy *Proxy
	addr  string
	out   core.Outbox

	mu    sync.Mutex
	tc    *transport.Conn     // set once, by the first handshake
	stats msgcodec.AgentStats // the last report; the handshake's capacity before the first
}

// conn is the peer's connection, nil before the first handshake.
func (pr *peer) conn() *transport.Conn {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.tc
}

// Start implements rts.Member: the dial loop runs until Stop.
func (pr *peer) Start(context.Context) error {
	pr.out.Go(pr.run)
	return nil
}

// Submit implements rts.Member: one task-batch frame. A send failure kills
// the peer; the ExecManager requeues the batch, and the replacement Proxy
// (plus the agents' purge-on-reconnect) guarantees partially shipped tasks
// cannot complete twice.
func (pr *peer) Submit(tasks []core.TaskDescription) error {
	tc := pr.conn()
	if tc == nil || !pr.Alive() {
		return fmt.Errorf("remoterts: agent %s not connected or dead", pr.addr)
	}
	if err := tc.Send(msgcodec.EncodeTaskBatch(tasks)); err != nil {
		err = fmt.Errorf("remoterts: agent %s: %w", pr.addr, err)
		pr.died(err)
		return err
	}
	pr.out.Submitted(len(tasks))
	return nil
}

// Alive implements rts.Member: until the connection, once up, dies.
func (pr *peer) Alive() bool { return !pr.out.Dead() }

// Stop implements rts.Member: closing the connection ends the read loop (the
// agent notices the disconnect and purges its RTS instance), and a peer not
// yet connected stops dialing.
func (pr *peer) Stop() error {
	pr.out.Stop(func() {
		if tc := pr.conn(); tc != nil {
			tc.Close() //nolint:errcheck
		}
	})
	return nil
}

// Stats implements rts.Member: the agent's last report (which carries no
// counters) under this connection's task counters. A peer that completed a
// handshake counts the one pilot its agent fronts.
func (pr *peer) Stats() core.RTSStats {
	pr.mu.Lock()
	st := pr.stats.RTSStats
	if pr.tc != nil {
		st.PilotsSubmitted = 1
	}
	pr.mu.Unlock()
	pr.out.Count(&st)
	return st
}

// died kills the peer: in-flight results may be lost, so the heartbeat must
// replace the Proxy and resubmit. The Proxy keeps the first death's cause.
// During Stop the connection teardown is expected and ignored.
func (pr *peer) died(err error) {
	if !pr.out.Stopped() && pr.out.Kill() {
		pr.proxy.deathErr.CompareAndSwap(nil, &err)
	}
}

// run dials the agent until the first successful handshake (exponential
// backoff between attempts), then pumps its frames until the connection
// dies. One connected-then-dead transition ends the loop: the peer is dead
// and the replacement Proxy owns reconnection.
func (pr *peer) run() {
	for attempt := 0; ; attempt++ {
		tc, err := pr.connect()
		if err != nil {
			select {
			case <-pr.out.Stopping():
				return
			case <-time.After(transport.Backoff(attempt)):
				continue
			}
		}
		pr.mu.Lock()
		pr.tc = tc
		pr.mu.Unlock()
		select {
		case pr.proxy.upCh <- struct{}{}:
		default:
		}
		if !pr.out.Stopped() { // else Stop may have looked before tc was set
			err = pr.readLoop(tc)
		}
		tc.Close() //nolint:errcheck
		pr.died(err)
		return
	}
}

// connect performs one dial + handshake attempt.
func (pr *peer) connect() (_ *transport.Conn, err error) {
	nc, err := transport.Dial(pr.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	tc := transport.NewConn(nc, transport.Options{
		Name:              pr.addr,
		HeartbeatInterval: pr.proxy.cfg.HeartbeatInterval,
	})
	defer func() {
		if err != nil {
			tc.Close() //nolint:errcheck
		}
	}()
	if err := tc.Send(msgcodec.EncodeHello(msgcodec.Hello{
		Proto: msgcodec.RemoteProto, Role: "manager", Name: managerName,
	})); err != nil {
		return nil, err
	}
	body, err := tc.Recv()
	if err != nil {
		return nil, err
	}
	h, err := msgcodec.DecodeHello(body)
	if err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if h.Role != "agent" || h.Proto != msgcodec.RemoteProto {
		return nil, fmt.Errorf("handshake: unexpected peer (role %q, proto %d)", h.Role, h.Proto)
	}
	pr.mu.Lock()
	pr.stats.Utilization = core.Utilization{CoresTotal: h.Cores, GPUsTotal: h.GPUs}
	pr.mu.Unlock()
	return tc, nil
}

// readLoop routes the agent's frames, result batches into the peer's Outbox
// and stats reports into its snapshot, until the connection dies or the
// agent reports its RTS dead. It returns why.
func (pr *peer) readLoop(tc *transport.Conn) error {
	for {
		body, err := tc.Recv()
		if err != nil {
			return fmt.Errorf("remoterts: agent %s: %w", pr.addr, err)
		}
		switch t, _ := msgcodec.FrameType(body); t {
		case msgcodec.FrameTaskResults:
			results, err := msgcodec.DecodeTaskResultsShared(body)
			if err != nil {
				return fmt.Errorf("remoterts: agent %s: bad result frame: %w", pr.addr, err)
			}
			for _, res := range results {
				pr.out.Deliver(res)
			}
		case msgcodec.FrameAgentStats:
			stats, err := msgcodec.DecodeAgentStats(body)
			if err != nil {
				return fmt.Errorf("remoterts: agent %s: bad stats frame: %w", pr.addr, err)
			}
			pr.mu.Lock()
			pr.stats = stats
			pr.mu.Unlock()
			if !stats.Alive {
				// The agent's own RTS died (pilot walltime, store failure):
				// same consequence as losing the connection.
				return fmt.Errorf("remoterts: agent %s reports its RTS dead", pr.addr)
			}
		default:
			// Unknown frame types are ignored for forward compatibility.
		}
	}
}
