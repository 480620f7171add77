package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msgcodec"
)

// ErrClosed is the error a locally closed connection reports from Send,
// Recv and Err.
var ErrClosed = errors.New("transport: connection closed")

// Options tunes one Conn. The zero value selects every default.
type Options struct {
	// Name labels the connection in errors ("agent-1", "events").
	Name string
	// SendQueue bounds the per-peer send queue in frames (default 256).
	// Send blocks while the queue is full, so a slow peer back-pressures
	// its own producer — never the engine behind it (the producer decides
	// what to do with that pressure; the event fan-out absorbs it in its
	// per-peer drop-oldest ring).
	SendQueue int
	// HeartbeatInterval is the keepalive ping cadence (default 1s,
	// negative disables). Pongs are answered automatically by the read
	// loop; any received frame counts as liveness, and no frame for four
	// intervals kills the connection (idleTimeout).
	HeartbeatInterval time.Duration
}

func (o *Options) defaults() {
	if o.SendQueue == 0 {
		o.SendQueue = 256
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = time.Second
	}
}

// idleTimeout is the peer-death deadline: no frame (data, ping or pong) for
// four heartbeat intervals kills the connection. Without heartbeats there is
// none.
func (o *Options) idleTimeout() time.Duration {
	if o.HeartbeatInterval <= 0 {
		return 0
	}
	return 4 * o.HeartbeatInterval
}

// Conn is one framed peer connection: a write pump draining a bounded send
// queue, a read pump delivering application frames and answering keepalive
// pings, and a heartbeat that — together with the read deadline — detects a
// dead peer without waiting for the kernel's TCP timeouts. All methods are
// safe for concurrent use.
//
// A body is its owner's for good unless the owner hands it back, on either
// side. A body sent with SendBuffer is handed back by the write pump once it
// is on the socket, and Buffer returns it to encode a later frame into. A body
// Recv returned and the caller handed back with Release is read into again by
// the read pump. Send and a body never released keep the plain contract: the
// connection never writes into them.
type Conn struct {
	nc   net.Conn
	opts Options

	sendCh chan outFrame // application frames and flush markers
	ctrlCh chan []byte   // pings/pongs jump the application queue
	recvCh chan []byte

	// sendFree holds written SendBuffer bodies for Buffer; recvFree holds
	// released bodies for the read pump, which gives a new body room to spare
	// once the caller has released one (recycling).
	sendFree  chan []byte
	recvFree  chan []byte
	recycling atomic.Bool

	done     chan struct{}
	dieOnce  sync.Once
	errMu    sync.Mutex
	err      error
	wg       sync.WaitGroup
	sent     atomic.Uint64
	received atomic.Uint64
	pingSeq  atomic.Uint64
}

// outFrame is one slot of the send queue: a frame body, handed back through
// sendFree once written when reuse is set, or — flushed set — a Flush call's
// marker, which the write pump answers once everything queued ahead of it is
// on the socket.
type outFrame struct {
	body    []byte
	reuse   bool
	flushed chan<- struct{}
}

// recvQueue bounds the frames the read pump reads ahead of Recv.
const recvQueue = 64

// spareBodies bounds each free list. A body that comes back to a full list is
// dropped: a burst that queued more frames than this allocates again, but an
// idle connection keeps no more than this many bodies alive, where a list as
// long as its queue could keep megabytes.
const spareBodies = 16

// NewConn wraps an established network connection. It takes ownership of nc:
// Close (or peer death) closes it.
func NewConn(nc net.Conn, opts Options) *Conn {
	opts.defaults()
	c := &Conn{
		nc:       nc,
		opts:     opts,
		sendCh:   make(chan outFrame, opts.SendQueue),
		ctrlCh:   make(chan []byte, 16),
		recvCh:   make(chan []byte, recvQueue),
		done:     make(chan struct{}),
		sendFree: make(chan []byte, spareBodies),
		recvFree: make(chan []byte, spareBodies),
	}
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	if opts.HeartbeatInterval > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop()
	}
	return c
}

// Send enqueues one application frame, blocking while the bounded send queue
// is full. It returns the connection's error once the peer is dead or the
// connection closed; a nil return means queued, not yet delivered.
func (c *Conn) Send(body []byte) error { return c.send(outFrame{body: body}) }

// SendBuffer is Send for a body the caller gives up: once the write pump has
// written it, it hands it back, emptied, through Buffer.
func (c *Conn) SendBuffer(body []byte) error { return c.send(outFrame{body: body, reuse: true}) }

// Buffer returns an empty buffer to encode a frame into: a SendBuffer body
// the write pump has handed back, or nil when none is (appending to nil
// allocates).
func (c *Conn) Buffer() []byte {
	select {
	case b := <-c.sendFree:
		return b
	default:
		return nil
	}
}

// Release hands back a body Recv returned, which the caller no longer reads
// and nothing it keeps aliases: the read pump may read a later frame into it.
func (c *Conn) Release(body []byte) {
	c.recycling.Store(true)
	putFree(c.recvFree, body)
}

// putFree keeps body[:0] on a free list, or drops it when the list is full.
func putFree(free chan []byte, body []byte) {
	select {
	case free <- body[:0]:
	default:
	}
}

func (c *Conn) send(f outFrame) error {
	select {
	case <-c.done:
		return c.Err()
	default:
	}
	select {
	case c.sendCh <- f:
		c.sent.Add(1)
		return nil
	case <-c.done:
		return c.Err()
	}
}

// Flush returns once every frame queued by a Send that returned before the
// call has been written to the socket — handed to the kernel, which delivers
// it ahead of a following Close — or with the connection's error if it died
// first. It is what a sender calls between its last frame and Close.
func (c *Conn) Flush() error {
	ack := make(chan struct{})
	select {
	case c.sendCh <- outFrame{flushed: ack}:
	case <-c.done:
		return c.Err()
	}
	select {
	case <-ack:
		return nil
	case <-c.done:
		select {
		case <-ack: // flushed, then died: the frames did go out
			return nil
		default:
			return c.Err()
		}
	}
}

// Recv returns the next application frame (keepalive traffic is consumed
// internally). Frames already received before a connection death are
// delivered before the error.
func (c *Conn) Recv() ([]byte, error) {
	select {
	case b := <-c.recvCh:
		return b, nil
	default:
	}
	select {
	case b := <-c.recvCh:
		return b, nil
	case <-c.done:
		select {
		case b := <-c.recvCh:
			return b, nil
		default:
		}
		return nil, c.Err()
	}
}

// Done is closed when the connection dies — peer death, transport error or
// local Close.
func (c *Conn) Done() <-chan struct{} { return c.done }

// Err reports why the connection died (ErrClosed for a local Close); nil
// while it is alive.
func (c *Conn) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// Close tears the connection down. Queued but unwritten frames are dropped.
func (c *Conn) Close() error {
	c.die(ErrClosed)
	c.wg.Wait()
	return nil
}

// RemoteAddr reports the peer's network address.
func (c *Conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

// Stats reports application frames queued for send and frames received.
func (c *Conn) Stats() (sent, received uint64) {
	return c.sent.Load(), c.received.Load()
}

func (c *Conn) die(err error) {
	c.dieOnce.Do(func() {
		c.errMu.Lock()
		if c.opts.Name != "" && err != ErrClosed {
			err = fmt.Errorf("transport: %s: %w", c.opts.Name, err)
		}
		c.err = err
		c.errMu.Unlock()
		close(c.done)
		c.nc.Close() //nolint:errcheck // tear-down path
	})
}

// writeLoop drains the control and send queues into the socket, coalescing
// queued frames into one flush. Control frames (pings, pongs) jump the
// application queue so a full send queue cannot starve the keepalive.
func (c *Conn) writeLoop() {
	defer c.wg.Done()
	bw := bufio.NewWriterSize(c.nc, 32<<10)
	writeTimeout := c.opts.idleTimeout()
	if writeTimeout <= 0 {
		writeTimeout = 30 * time.Second
	}
	writeOne := func(f outFrame) bool {
		var err error
		if f.flushed != nil {
			if err = bw.Flush(); err == nil {
				close(f.flushed)
			}
		} else if err = WriteFrame(bw, f.body); err == nil && f.reuse {
			putFree(c.sendFree, f.body)
		}
		if err != nil {
			c.die(err)
			return false
		}
		return true
	}
	for {
		var first outFrame
		select {
		case <-c.done:
			return
		case first.body = <-c.ctrlCh:
		case first = <-c.sendCh:
		}
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck // conn types here support deadlines
		if !writeOne(first) {
			return
		}
		// Opportunistically coalesce whatever else is queued into this
		// flush; control frames first.
	drain:
		for i := 0; i < c.opts.SendQueue; i++ {
			select {
			case b := <-c.ctrlCh:
				if !writeOne(outFrame{body: b}) {
					return
				}
			case f := <-c.sendCh:
				if !writeOne(f) {
					return
				}
			default:
				break drain
			}
		}
		if err := bw.Flush(); err != nil {
			c.die(err)
			return
		}
	}
}

// readLoop delivers application frames, answers pings and enforces the
// idle deadline: a peer that goes silent past idleTimeout is declared dead.
func (c *Conn) readLoop() {
	defer c.wg.Done()
	br := bufio.NewReaderSize(c.nc, 32<<10)
	idle := c.opts.idleTimeout()
	for {
		if idle > 0 {
			c.nc.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck // conn types here support deadlines
		}
		n, err := readLength(br, MaxFrame)
		var body []byte
		if err == nil {
			body, err = readBody(br, c.recvBody(n))
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				err = fmt.Errorf("peer silent for %v: %w", idle, err)
			}
			c.die(err)
			return
		}
		switch t, _ := msgcodec.FrameType(body); t {
		case msgcodec.FramePing:
			if seq, err := msgcodec.DecodePing(body); err == nil {
				select {
				case c.ctrlCh <- msgcodec.EncodePong(seq):
				default:
					// Control queue full: the writer is wedged and the
					// peer's own deadline will handle it.
				}
			}
			putFree(c.recvFree, body) // read here and nowhere else
		case msgcodec.FramePong:
			// Liveness only; the deadline reset above already counted it.
			putFree(c.recvFree, body)
		default:
			c.received.Add(1)
			select {
			case c.recvCh <- body:
			case <-c.done:
				return
			}
		}
	}
}

// recvBody returns a body of n bytes for the read pump to read a frame into:
// a released one if the first on the free list has room, else a new one —
// with room to spare once the caller releases bodies, sized to the power of
// two above n, so a body kept from frame to frame stops being outgrown.
func (c *Conn) recvBody(n uint64) []byte {
	select {
	case b := <-c.recvFree:
		if uint64(cap(b)) >= n {
			return b[:n]
		}
	default:
	}
	size := n
	if c.recycling.Load() {
		size = min(1<<bits.Len64(n), uint64(MaxFrame))
	}
	return make([]byte, n, size)
}

// heartbeatLoop sends a ping every HeartbeatInterval. The peer's read loop
// answers with a pong; traffic in either direction resets both deadlines.
func (c *Conn) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			select {
			case c.ctrlCh <- msgcodec.EncodePing(c.pingSeq.Add(1)):
			default:
			}
		}
	}
}
