package transport

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/msgcodec"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 1<<16),
		msgcodec.EncodePing(7),
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestReadFrameLimit(t *testing.T) {
	// A length prefix beyond the cap must error before any allocation.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrameLimit(bufio.NewReader(&buf), 99); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// A huge prefix with no body behind it: error, not an OOM attempt.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("hostile length prefix accepted")
	}
	// Truncated body.
	var tr bytes.Buffer
	WriteFrame(&tr, []byte("full frame")) //nolint:errcheck
	short := tr.Bytes()[:tr.Len()-3]
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(short))); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestSplitAddr(t *testing.T) {
	cases := []struct {
		in, network, address string
		ok                   bool
	}{
		{"unix:/tmp/x.sock", "unix", "/tmp/x.sock", true},
		{"tcp:127.0.0.1:7001", "tcp", "127.0.0.1:7001", true},
		{"127.0.0.1:7001", "tcp", "127.0.0.1:7001", true},
		{"tcp::0", "tcp", ":0", true},
		{"unix:", "", "", false},
		{"", "", "", false},
		{"no-port", "", "", false},
	}
	for _, c := range cases {
		network, address, err := SplitAddr(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("SplitAddr(%q): err=%v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && (network != c.network || address != c.address) {
			t.Fatalf("SplitAddr(%q) = %q,%q", c.in, network, address)
		}
	}
}

func TestBackoffMonotonicCapped(t *testing.T) {
	prev := time.Duration(0)
	for i := 0; i < 12; i++ {
		d := Backoff(i)
		if d < prev {
			t.Fatalf("Backoff(%d)=%v < Backoff(%d)=%v", i, d, i-1, prev)
		}
		if d > 2*time.Second {
			t.Fatalf("Backoff(%d)=%v exceeds cap", i, d)
		}
		prev = d
	}
	if Backoff(50) != 2*time.Second {
		t.Fatalf("Backoff(50)=%v, want cap", Backoff(50))
	}
}

func pipePair(t *testing.T, opts Options) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a, opts), NewConn(b, opts)
	t.Cleanup(func() { ca.Close(); cb.Close() }) //nolint:errcheck
	return ca, cb
}

func TestConnSendRecv(t *testing.T) {
	ca, cb := pipePair(t, Options{HeartbeatInterval: 50 * time.Millisecond})
	for i := 0; i < 100; i++ {
		if err := ca.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("frame %d: got %v", i, got)
		}
	}
}

func TestConnKeepaliveKeepsIdleLinkAlive(t *testing.T) {
	// No application traffic; pings/pongs must keep both deadlines fed.
	ca, cb := pipePair(t, Options{HeartbeatInterval: 20 * time.Millisecond, IdleTimeout: 100 * time.Millisecond})
	time.Sleep(400 * time.Millisecond)
	select {
	case <-ca.Done():
		t.Fatalf("a died: %v", ca.Err())
	case <-cb.Done():
		t.Fatalf("b died: %v", cb.Err())
	default:
	}
}

func TestConnSilentPeerDeclaredDead(t *testing.T) {
	// The far end is a raw pipe that never answers: the idle deadline must
	// kill the connection even though the socket stays open.
	a, b := net.Pipe()
	defer b.Close() //nolint:errcheck
	// Drain b so a's writes don't block forever.
	go func() {
		buf := make([]byte, 1024)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	c := NewConn(a, Options{HeartbeatInterval: 20 * time.Millisecond, IdleTimeout: 80 * time.Millisecond})
	defer c.Close() //nolint:errcheck
	select {
	case <-c.Done():
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "silent") {
			t.Fatalf("unexpected death error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("silent peer never declared dead")
	}
}

func TestConnCloseUnblocksSendAndRecv(t *testing.T) {
	ca, cb := pipePair(t, Options{SendQueue: 1, HeartbeatInterval: -1, IdleTimeout: -1})
	_ = cb
	recvErr := make(chan error, 1)
	go func() {
		_, err := ca.Recv()
		recvErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ca.Close() //nolint:errcheck
	select {
	case err := <-recvErr:
		if err != ErrClosed {
			t.Fatalf("Recv err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv never unblocked")
	}
	if err := ca.Send([]byte("x")); err == nil {
		t.Fatal("Send on closed conn succeeded")
	}
}

func TestConnOverTCP(t *testing.T) {
	ln, err := Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	addr := Addr(ln)
	if !strings.HasPrefix(addr, "tcp:127.0.0.1:") {
		t.Fatalf("listener addr %q", addr)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			accepted <- nc
		}
	}()
	nc, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client := NewConn(nc, Options{})
	defer client.Close() //nolint:errcheck
	server := NewConn(<-accepted, Options{})
	defer server.Close() //nolint:errcheck

	if err := client.Send([]byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over tcp" {
		t.Fatalf("got %q", got)
	}
}

// tcpPair returns a Conn and the raw far end of one loopback TCP connection,
// so a test can play a peer that reads at its own pace.
func tcpPair(t *testing.T, opts Options) (*Conn, net.Conn) {
	t.Helper()
	ln, err := Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	nc, err := Dial(Addr(ln), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc, opts)
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	raw, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { raw.Close() }) //nolint:errcheck
	return c, raw
}

func TestFlushThenCloseDeliversEveryFrame(t *testing.T) {
	// ~1 MB through a peer that starts reading late and reads slowly: more
	// than the socket buffers hold, so the write pump is still blocked on
	// the peer when Flush is called. Close drops whatever is still queued;
	// Flush before it is what makes the last frame arrive.
	const frames = 256
	c, raw := tcpPair(t, Options{SendQueue: frames + 1, HeartbeatInterval: -1, IdleTimeout: -1})
	got := make(chan int, 1)
	last := make(chan []byte, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		br := bufio.NewReaderSize(raw, 4096)
		n := 0
		var body []byte
		for {
			b, err := ReadFrame(br)
			if err != nil {
				break
			}
			n, body = n+1, b
			if n%32 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		got <- n
		last <- body
	}()
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	for i := 0; i < frames; i++ {
		if err := c.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send([]byte("the end")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	c.Close() //nolint:errcheck
	select {
	case n := <-got:
		if body := <-last; n != frames+1 || string(body) != "the end" {
			t.Fatalf("peer read %d frames ending in %d bytes, want %d ending in the final frame", n, len(body), frames+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer never saw the end of the stream")
	}
}

func TestFlushOnDeadConnReturnsItsError(t *testing.T) {
	// Already dead: the error, at once.
	ca, _ := pipePair(t, Options{HeartbeatInterval: -1, IdleTimeout: -1})
	ca.Close() //nolint:errcheck
	if err := ca.Flush(); err != ErrClosed {
		t.Fatalf("Flush on a closed conn = %v, want ErrClosed", err)
	}

	// Dies while Flush waits: nobody reads the far end of this pipe, so the
	// write pump is wedged on the first frame and the marker never comes up.
	a, b := net.Pipe()
	defer b.Close() //nolint:errcheck
	c := NewConn(a, Options{HeartbeatInterval: -1, IdleTimeout: -1})
	if err := c.Send([]byte("stuck")); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned %v with the frame still unwritten", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.Close() //nolint:errcheck
	select {
	case err := <-flushed:
		if err != ErrClosed {
			t.Fatalf("Flush across a close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Flush hung on a dead connection")
	}
}
