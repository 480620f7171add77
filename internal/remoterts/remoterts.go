// Package remoterts splits EnTK's manager from its runtime system across a
// real transport — the paper's actual deployment shape: the manager on a
// login node, pilot agents on compute nodes. Three pieces:
//
//   - Proxy is a manager-side core.RTS that ships task batches to one or
//     more entk-agent processes over internal/transport frames and routes
//     their results back into the done queue.
//   - Agent is the process-side server hosting the real rts.PilotRTS: one
//     manager connection at a time, a fresh RTS instance per connection
//     (the paper's "purges any process left over by the failed RTS").
//   - EventServer / AttachEvents extend the in-process event stream to
//     remote subscribers, each with its own bounded drop-oldest ring.
//
// Failure model (docs/remote.md): the death of any connected agent marks the
// whole Proxy dead. The ExecManager heartbeat then tears the Proxy down and
// factory-builds a replacement — which re-dials every agent — and re-injects
// the lost in-flight tasks through the existing resubmission path, exactly
// as it would for an in-process RTS crash. Results arriving after the death
// are dropped (a dead RTS loses in-flight tasks), and reconnecting to an
// agent purges whatever its previous incarnation was still running, so no
// task can be reported DONE twice.
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

// Proxy is the manager-side runtime system: core.RTS over the wire.
type Proxy struct {
	cfg   Config
	peers []*peer

	out     core.Outbox
	started bool
	upCh    chan struct{} // one tick per peer's first connection

	rr     atomic.Uint64 // task-striping cursor
	everUp atomic.Int64

	errMu    sync.Mutex
	deathErr error
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
	p.out.Init(4096)
	for _, addr := range cfg.Addrs {
		p.peers = append(p.peers, &peer{proxy: p, addr: addr})
	}
	return p, nil
}

// Name implements core.RTS.
func (p *Proxy) Name() string { return "remote-rts" }

// Start implements core.RTS: dial every agent concurrently and wait for the
// fleet to come up. If some agents are still unreachable when StartTimeout
// expires, Start degrades to whatever subset connected — at least one, or
// it fails. Late agents keep being re-dialed with backoff and join the pool
// when they appear; a peer that connected and then died kills the whole
// Proxy instead (see the package comment for the failover contract).
func (p *Proxy) Start(ctx context.Context) error {
	if p.started {
		return errors.New("remoterts: already started")
	}
	p.started = true
	for _, pr := range p.peers {
		p.out.Go(pr.run)
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
			p.Stop() //nolint:errcheck
			return ctx.Err()
		case <-grace:
			return nil // degraded start: the missing agents may join later
		case <-deadline:
			if up > 0 {
				return nil
			}
			p.Stop() //nolint:errcheck
			return fmt.Errorf("remoterts: no agent reachable within %v (tried %v)", p.cfg.StartTimeout, p.cfg.Addrs)
		}
	}
	return nil
}

// Submit implements core.RTS: stripe the batch across the connected agents
// and ship one task-batch frame per agent, encoded straight from tasks. A
// send failure marks the Proxy dead and returns an error — the ExecManager
// requeues the batch, and the replacement Proxy (plus the agents'
// purge-on-reconnect) guarantees the partially shipped tasks cannot complete
// twice.
func (p *Proxy) Submit(tasks []core.TaskDescription) error {
	if !p.started {
		return errors.New("remoterts: not started")
	}
	if p.out.Stopped() || p.out.Dead() {
		return errors.New("remoterts: stopped or dead")
	}
	// In-process closures cannot cross a socket, and silently dropping one
	// would execute a different task than the application described: reject
	// the whole batch before any of it is sent.
	for i := range tasks {
		if tasks[i].LocalFunc != nil {
			return fmt.Errorf("remoterts: task %s sets LocalFunc, which cannot be shipped to a remote agent", tasks[i].UID)
		}
	}
	live := p.livePeers()
	if len(live) == 0 {
		return errors.New("remoterts: no connected agents")
	}
	// Interleaved round-robin: task i goes to live peer (base+i) mod L, the
	// base rotated per batch so small batches do not pin the first agent.
	base := int(p.rr.Add(1)-1) % len(live)
	for k, pr := range live {
		first, count := stripe(len(tasks), len(live), base, k)
		if count == 0 {
			continue
		}
		body := msgcodec.EncodeTaskBatchFunc(count, func(i int, t *core.TaskDescription) {
			*t = tasks[first+i*len(live)]
		})
		if err := pr.send(body); err != nil {
			p.peerDied(pr, fmt.Errorf("remoterts: submit to %s: %w", pr.addr, err))
			return fmt.Errorf("remoterts: agent %s: %w", pr.addr, err)
		}
	}
	p.out.Submitted(len(tasks))
	return nil
}

// stripe locates peer k's share of an n-task batch striped over peers live
// peers from rotation base: the tasks i with (base+i) mod peers == k, which
// are first, first+peers, ... — count of them, in submission order.
func stripe(n, peers, base, k int) (first, count int) {
	first = (k - base + peers) % peers
	if first >= n {
		return first, 0
	}
	return first, (n - first + peers - 1) / peers
}

// Completions implements core.RTS.
func (p *Proxy) Completions() <-chan core.TaskResult { return p.out.Completions() }

// Alive implements core.RTS: from Start until the first peer death.
func (p *Proxy) Alive() bool { return p.started && !p.out.Dead() }

// Err reports why the Proxy died, nil while healthy.
func (p *Proxy) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.deathErr
}

// Stop implements core.RTS: close every agent connection and the completion
// channel. The agents notice the disconnect and purge their RTS instances.
func (p *Proxy) Stop() error {
	p.out.Stop(func() {
		for _, pr := range p.peers {
			pr.close()
		}
	})
	return nil
}

// Stats implements core.RTS: the agents' last reports merged in address order
// (an agent's capacity comes from its handshake until its first report
// lands), under the proxy's own counters — it sees every submission and every
// result, and the reports lag by up to a heartbeat. PilotsSubmitted counts
// agents that completed a handshake (each fronts one pilot).
func (p *Proxy) Stats() core.RTSStats {
	var st core.RTSStats
	for _, pr := range p.peers {
		pr.mu.Lock()
		st.Add(pr.stats.RTSStats)
		pr.mu.Unlock()
	}
	st.PilotsSubmitted = int(p.everUp.Load())
	p.out.Count(&st)
	return st
}

// livePeers snapshots the connected peers in address order.
func (p *Proxy) livePeers() []*peer {
	live := make([]*peer, 0, len(p.peers))
	for _, pr := range p.peers {
		if pr.isUp() {
			live = append(live, pr)
		}
	}
	return live
}

// peerDied marks the whole Proxy dead on the first connected peer's death:
// in-flight results may be lost, so the heartbeat must replace the RTS and
// resubmit. During Stop the connection teardown is expected and ignored.
func (p *Proxy) peerDied(pr *peer, err error) {
	pr.setDown()
	if p.out.Stopped() {
		return
	}
	if p.out.Kill() {
		p.errMu.Lock()
		p.deathErr = err
		p.errMu.Unlock()
	}
}

// peer is one agent endpoint: its connection, its latest report, and the
// dial/handshake loop that brings it up.
type peer struct {
	proxy *Proxy
	addr  string

	mu    sync.Mutex
	tc    *transport.Conn
	up    bool
	stats msgcodec.AgentStats // the last report; the handshake's capacity before the first
}

func (pr *peer) isUp() bool {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.up
}

func (pr *peer) send(body []byte) error {
	pr.mu.Lock()
	tc := pr.tc
	pr.mu.Unlock()
	if tc == nil {
		return errors.New("not connected")
	}
	return tc.Send(body)
}

func (pr *peer) setDown() {
	pr.mu.Lock()
	pr.up = false
	pr.mu.Unlock()
}

func (pr *peer) close() {
	pr.mu.Lock()
	tc := pr.tc
	pr.mu.Unlock()
	if tc != nil {
		tc.Close() //nolint:errcheck
	}
}

// run dials the agent until the first successful handshake (exponential
// backoff between attempts), then pumps its frames until the connection
// dies. One connected-then-dead transition ends the loop: the proxy is dead
// and its replacement owns reconnection.
func (pr *peer) run() {
	for attempt := 0; ; attempt++ {
		select {
		case <-pr.proxy.out.Stopping():
			return
		default:
		}
		tc, err := pr.connect()
		if err != nil {
			select {
			case <-pr.proxy.out.Stopping():
				return
			case <-time.After(transport.Backoff(attempt)):
				continue
			}
		}
		pr.mu.Lock()
		pr.tc = tc
		pr.up = true
		pr.mu.Unlock()
		pr.proxy.everUp.Add(1)
		select {
		case pr.proxy.upCh <- struct{}{}:
		default:
		}
		pr.readLoop(tc)
		return
	}
}

// connect performs one dial + handshake attempt.
func (pr *peer) connect() (*transport.Conn, error) {
	nc, err := transport.Dial(pr.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	tc := transport.NewConn(nc, transport.Options{
		Name:              pr.addr,
		HeartbeatInterval: pr.proxy.cfg.HeartbeatInterval,
	})
	if err := tc.Send(msgcodec.EncodeHello(msgcodec.Hello{
		Proto: msgcodec.RemoteProto, Role: "manager", Name: managerName,
	})); err != nil {
		tc.Close() //nolint:errcheck
		return nil, err
	}
	body, err := tc.Recv()
	if err != nil {
		tc.Close() //nolint:errcheck
		return nil, err
	}
	h, err := msgcodec.DecodeHello(body)
	if err != nil {
		tc.Close() //nolint:errcheck
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if h.Role != "agent" || h.Proto != msgcodec.RemoteProto {
		tc.Close() //nolint:errcheck
		return nil, fmt.Errorf("handshake: unexpected peer (role %q, proto %d)", h.Role, h.Proto)
	}
	pr.mu.Lock()
	pr.stats.Utilization = core.Utilization{CoresTotal: h.Cores, GPUsTotal: h.GPUs}
	pr.mu.Unlock()
	return tc, nil
}

// readLoop routes the agent's frames: result batches into the completion
// channel, stats reports into the peer's snapshot. It returns when the
// connection dies — and reports the death to the proxy.
func (pr *peer) readLoop(tc *transport.Conn) {
	for {
		body, err := tc.Recv()
		if err != nil {
			pr.proxy.peerDied(pr, fmt.Errorf("remoterts: agent %s: %w", pr.addr, err))
			return
		}
		switch t, _ := msgcodec.FrameType(body); t {
		case msgcodec.FrameTaskResults:
			results, err := msgcodec.DecodeTaskResultsShared(body)
			if err != nil {
				tc.Close() //nolint:errcheck
				pr.proxy.peerDied(pr, fmt.Errorf("remoterts: agent %s: bad result frame: %w", pr.addr, err))
				return
			}
			for _, res := range results {
				pr.proxy.out.Deliver(res)
			}
		case msgcodec.FrameAgentStats:
			stats, err := msgcodec.DecodeAgentStats(body)
			if err != nil {
				tc.Close() //nolint:errcheck
				pr.proxy.peerDied(pr, fmt.Errorf("remoterts: agent %s: bad stats frame: %w", pr.addr, err))
				return
			}
			pr.mu.Lock()
			pr.stats = stats
			pr.mu.Unlock()
			if !stats.Alive {
				// The agent's own RTS died (pilot walltime, store failure):
				// same consequence as losing the connection.
				tc.Close() //nolint:errcheck
				pr.proxy.peerDied(pr, fmt.Errorf("remoterts: agent %s reports its RTS dead", pr.addr))
				return
			}
		default:
			// Unknown frame types are ignored for forward compatibility.
		}
	}
}
