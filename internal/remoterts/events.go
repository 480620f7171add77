package remoterts

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/transport"
)

// EventServer fans the run's event stream out to remote subscribers. Each
// attached peer gets its own core.EventSub — its own bounded drop-oldest
// ring — so the backpressure contract is identical to the in-process one:
// publishing never blocks the state machine; a peer that cannot keep up
// loses its own oldest events, counted in its Dropped tally, and never
// slows another peer or the run.
type EventServer struct {
	ln        net.Listener
	subscribe func(core.EventFilter) *core.EventSub

	// HeartbeatInterval, IdleTimeout, SendQueue and MaxFrame tune the
	// per-peer connections; set before any peer attaches.
	HeartbeatInterval time.Duration
	IdleTimeout       time.Duration
	SendQueue         int
	MaxFrame          uint64

	mu     sync.Mutex
	live   map[*eventPeer]struct{}
	gone   []core.EventPeerStats
	closed bool
	// drained is made by Close when peers are still live and closed by the
	// serve loop that removes the last of them.
	drained chan struct{}
	wg      sync.WaitGroup
}

type eventPeer struct {
	addr string
	sub  *core.EventSub
	sent atomic.Uint64
	tc   *transport.Conn
}

// NewEventServer listens on addr and serves subscribers drawn from
// subscribe (typically AppManager.Subscribe).
func NewEventServer(addr string, subscribe func(core.EventFilter) *core.EventSub) (*EventServer, error) {
	if subscribe == nil {
		return nil, errors.New("remoterts: event server requires a subscribe function")
	}
	ln, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &EventServer{ln: ln, subscribe: subscribe, live: map[*eventPeer]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound endpoint in dialable form.
func (s *EventServer) Addr() string { return transport.Addr(s.ln) }

// PeerStats snapshots every subscriber this server has seen, live and gone,
// for Progress.EventPeers.
func (s *EventServer) PeerStats() []core.EventPeerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]core.EventPeerStats, 0, len(s.live)+len(s.gone))
	for p := range s.live {
		out = append(out, core.EventPeerStats{
			Peer: p.addr, Sent: p.sent.Load(), Dropped: p.sub.Dropped(), Connected: true,
		})
	}
	out = append(out, s.gone...)
	return out
}

// Close stops the listener and disconnects every peer.
func (s *EventServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	peers := make([]*eventPeer, 0, len(s.live))
	for p := range s.live {
		peers = append(peers, p)
	}
	drained := make(chan struct{})
	if len(peers) == 0 {
		close(drained)
	} else {
		s.drained = drained
	}
	s.mu.Unlock()
	s.ln.Close() //nolint:errcheck
	// End every subscription; each serve loop drains its ring, ships its
	// end-of-stream frame (0x37) and closes its own connection, so a
	// healthy peer sees a clean end rather than a dropped connection.
	for _, p := range peers {
		p.sub.Close()
	}
	// Wait for the serve loops to say so, with a bounded grace, then
	// force-close any straggler (a peer wedged in a blocking Send on a
	// stalled socket).
	grace := time.NewTimer(500 * time.Millisecond)
	defer grace.Stop()
	select {
	case <-drained:
	case <-grace.C:
	}
	for _, p := range peers {
		p.tc.Close() //nolint:errcheck
	}
	s.wg.Wait()
}

func (s *EventServer) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serve(nc)
	}
}

// serve pumps one subscriber: read its attach request, subscribe with the
// requested filter, then stream event batches until the run's stream or the
// connection ends. The closing frame carries the peer's drop count so the
// client can report how much it missed.
func (s *EventServer) serve(nc net.Conn) {
	defer s.wg.Done()
	tc := transport.NewConn(nc, transport.Options{
		Name:              "event-peer",
		SendQueue:         s.SendQueue,
		MaxFrame:          s.MaxFrame,
		HeartbeatInterval: s.HeartbeatInterval,
		IdleTimeout:       s.IdleTimeout,
	})
	body, err := tc.Recv()
	if err != nil {
		tc.Close() //nolint:errcheck
		return
	}
	att, err := msgcodec.DecodeAttach(body)
	if err != nil {
		tc.Close() //nolint:errcheck
		return
	}
	filter := core.EventFilter{
		Pipeline: att.Pipeline,
		UIDs:     att.UIDs,
		Buffer:   att.Buffer,
	}
	for _, k := range att.Kinds {
		filter.Kinds = append(filter.Kinds, core.EventKind(k))
	}
	sub := s.subscribe(filter)
	p := &eventPeer{addr: tc.RemoteAddr(), sub: sub, tc: tc}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sub.Close()
		tc.Close() //nolint:errcheck
		return
	}
	s.live[p] = struct{}{}
	s.mu.Unlock()

	// A vanished peer must release its subscription promptly, or its ring
	// would keep consuming events for nobody.
	go func() {
		<-tc.Done()
		sub.Close()
	}()

	for ev := range sub.C() {
		batch := []core.Event{ev}
	coalesce:
		for len(batch) < 64 {
			select {
			case more, ok := <-sub.C():
				if !ok {
					break coalesce
				}
				batch = append(batch, more)
			default:
				break coalesce
			}
		}
		// Send blocks when the peer's connection queue is full; the
		// peer's ring absorbs the stall by dropping its own oldest.
		if err := tc.Send(msgcodec.EncodeEventBatch(toRemoteEvents(batch))); err != nil {
			break
		}
		p.sent.Add(uint64(len(batch)))
	}
	if tc.Send(msgcodec.EncodeEventEnd(sub.Dropped())) == nil {
		tc.Flush() //nolint:errcheck // closing either way; a dead peer gets no end frame
	}
	tc.Close() //nolint:errcheck
	sub.Close()

	s.mu.Lock()
	delete(s.live, p)
	switch {
	case !s.closed:
		s.gone = append(s.gone, core.EventPeerStats{
			Peer: p.addr, Sent: p.sent.Load(), Dropped: sub.Dropped(), Connected: false,
		})
	case len(s.live) == 0:
		close(s.drained) // Close is waiting for exactly this; no peer joins a closed server
	}
	s.mu.Unlock()
}

// EventStream is the client side of an attach: a live remote event feed.
type EventStream struct {
	tc      *transport.Conn
	out     chan core.Event
	dropped atomic.Uint64
	ended   atomic.Bool
}

// deliver hands one event to the consumer, abandoning it if the consumer
// closed the stream (so recvLoop never wedges on a departed reader).
func (es *EventStream) deliver(ev core.Event) bool {
	select {
	case es.out <- ev:
		return true
	case <-es.tc.Done():
		// Drain race: the connection died but the consumer may still be
		// reading; try once more without blocking.
		select {
		case es.out <- ev:
			return true
		default:
			return false
		}
	}
}

// AttachEvents dials an EventServer and subscribes with filter. Events
// arrive on C until the remote stream ends or the connection drops.
func AttachEvents(addr string, filter core.EventFilter, dialTimeout time.Duration) (*EventStream, error) {
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	nc, err := transport.Dial(addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	tc := transport.NewConn(nc, transport.Options{Name: addr})
	att := msgcodec.Attach{
		Pipeline: filter.Pipeline,
		UIDs:     filter.UIDs,
		Buffer:   filter.Buffer,
	}
	for _, k := range filter.Kinds {
		att.Kinds = append(att.Kinds, string(k))
	}
	if err := tc.Send(msgcodec.EncodeAttach(att)); err != nil {
		tc.Close() //nolint:errcheck
		return nil, err
	}
	es := &EventStream{tc: tc, out: make(chan core.Event, 256)}
	go es.recvLoop()
	return es, nil
}

// C delivers the remote events; closed when the stream ends.
func (es *EventStream) C() <-chan core.Event { return es.out }

// Dropped reports the server-side drop count for this subscription, valid
// once C is closed by a clean end-of-stream frame.
func (es *EventStream) Dropped() uint64 { return es.dropped.Load() }

// Ended reports whether the stream finished with a clean end-of-stream
// frame (as opposed to a dropped connection).
func (es *EventStream) Ended() bool { return es.ended.Load() }

// Close detaches from the server.
func (es *EventStream) Close() { es.tc.Close() } //nolint:errcheck

func (es *EventStream) recvLoop() {
	defer close(es.out)
	defer es.tc.Close()
	for {
		body, err := es.tc.Recv()
		if err != nil {
			return
		}
		switch t, _ := msgcodec.FrameType(body); t {
		case msgcodec.FrameEventBatch:
			revs, err := msgcodec.DecodeEventBatch(body)
			if err != nil {
				return
			}
			for _, ev := range fromRemoteEvents(revs) {
				if !es.deliver(ev) {
					return
				}
			}
		case msgcodec.FrameEventEnd:
			n, err := msgcodec.DecodeEventEnd(body)
			if err == nil {
				es.dropped.Store(n)
				es.ended.Store(true)
			}
			return
		}
	}
}
