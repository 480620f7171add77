package remoterts

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/transport"
)

// testBus hands out real core.EventSub rings via a standalone EventBus, so
// the remote fan-out is tested against the genuine in-process contract.
func testBus(t *testing.T) *core.EventBus {
	t.Helper()
	return core.NewEventBus()
}

func TestEventServerRoundTrip(t *testing.T) {
	am := testBus(t)
	s, err := NewEventServer("tcp:127.0.0.1:0", am.Subscribe)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	es, err := AttachEvents(s.Addr(), core.EventFilter{Buffer: 64}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	// Publishing needs an attached subscriber; wait until the server has
	// registered the peer.
	waitFor(t, "peer registration", func() bool { return len(s.PeerStats()) == 1 })

	want := 20
	for i := 0; i < want; i++ {
		am.Publish(core.Event{Kind: core.EventTask, UID: uid(i), To: "DONE", VTime: time.Unix(int64(i), 0)})
	}

	got := 0
	deadline := time.After(5 * time.Second)
	for got < want {
		select {
		case ev, ok := <-es.C():
			if !ok {
				t.Fatalf("stream closed after %d/%d events", got, want)
			}
			if ev.Kind != core.EventTask || ev.To != "DONE" {
				t.Fatalf("event mangled in transit: %+v", ev)
			}
			got++
		case <-deadline:
			t.Fatalf("timed out after %d/%d events", got, want)
		}
	}

	// The server counts a batch as sent once Send has returned, which the
	// peer having received it does not wait for.
	waitFor(t, "the peer's sent tally", func() bool {
		stats := s.PeerStats()
		return len(stats) == 1 && stats[0].Sent >= uint64(want) && stats[0].Connected
	})
}

func TestEventServerDropAccounting(t *testing.T) {
	am := testBus(t)
	s, err := NewEventServer("tcp:127.0.0.1:0", am.Subscribe)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A tiny buffer and a burst far beyond it: the peer must lose events,
	// and the loss must be visible in its Dropped tally — never block the
	// publisher.
	es, err := AttachEvents(s.Addr(), core.EventFilter{Buffer: 4}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	waitFor(t, "peer registration", func() bool { return len(s.PeerStats()) == 1 })

	start := time.Now()
	for i := 0; i < 100000; i++ {
		am.Publish(core.Event{Kind: core.EventTask, UID: "task.a", To: "DONE"})
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("publishing blocked on a slow remote peer: %v for 100k events", elapsed)
	}

	waitFor(t, "drop accounting", func() bool {
		st := s.PeerStats()
		return len(st) == 1 && st[0].Dropped > 0
	})
}

func TestEventStreamEndFrame(t *testing.T) {
	am := testBus(t)
	s, err := NewEventServer("tcp:127.0.0.1:0", am.Subscribe)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	es, err := AttachEvents(s.Addr(), core.EventFilter{Buffer: 16}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peer registration", func() bool { return len(s.PeerStats()) == 1 })
	am.Publish(core.Event{Kind: core.EventPipeline, UID: "p.1", To: "DONE"})

	// Closing the run's event bus ends every subscription; the remote
	// stream must end cleanly with the server's drop count.
	am.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-es.C():
			if !ok {
				if !es.Ended() {
					t.Fatal("stream closed without a clean end-of-stream frame")
				}
				return
			}
		case <-deadline:
			t.Fatal("stream never ended after the bus closed")
		}
	}
}

// TestEventServerCloseWaitsForItsPeers: Close waits for the serve loops to
// finish — a healthy peer gets its end frame and Close returns as soon as it
// has, far inside the grace — and a peer wedged behind a stalled socket (it
// attached and never read) is force-closed when the grace runs out.
func TestEventServerCloseWaitsForItsPeers(t *testing.T) {
	const grace = 500 * time.Millisecond // EventServer.Close's

	t.Run("healthy", func(t *testing.T) {
		am := testBus(t)
		s, err := NewEventServer("tcp:127.0.0.1:0", am.Subscribe)
		if err != nil {
			t.Fatal(err)
		}
		es, err := AttachEvents(s.Addr(), core.EventFilter{Buffer: 64}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer es.Close()
		waitFor(t, "peer registration", func() bool { return len(s.PeerStats()) == 1 })
		am.Publish(core.Event{Kind: core.EventTask, UID: "task.a", To: "DONE"})
		start := time.Now()
		s.Close()
		if elapsed := time.Since(start); elapsed > grace/2 {
			t.Errorf("Close took %v with one healthy peer, want well inside the %v grace", elapsed, grace)
		}
		for range es.C() {
		}
		if !es.Ended() {
			t.Error("the healthy peer's stream ended without its end frame")
		}
	})

	t.Run("wedged", func(t *testing.T) {
		am := testBus(t)
		s, err := NewEventServer("unix:"+filepath.Join(t.TempDir(), "events.sock"), am.Subscribe)
		if err != nil {
			t.Fatal(err)
		}
		nc, err := transport.Dial(s.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		const events = 2
		if err := transport.WriteFrame(nc, msgcodec.EncodeAttach(core.EventFilter{Buffer: events})); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "peer registration", func() bool { return len(s.PeerStats()) == 1 })
		// A socket nobody reads. Close discards what the buffer still holds, so
		// what the serve loop owes after it must not fit in the kernel's socket
		// buffer, or its Flush succeeds and the peer was never wedged: every
		// frame carries at least one 4 MiB UID, so once one has been sent the
		// connection's writer is stuck in it, and the serve loop behind it, in
		// Send or in the Flush behind its end frame.
		uid := strings.Repeat("x", 4<<20)
		for i := 0; i < events; i++ {
			am.Publish(core.Event{Kind: core.EventTask, UID: uid, To: "DONE"})
		}
		waitFor(t, "the first batches to leave", func() bool { return s.PeerStats()[0].Sent > 0 })
		start := time.Now()
		s.Close() // returns only once the serve loop has: the force-close worked
		if elapsed := time.Since(start); elapsed < grace*4/5 || elapsed > 10*grace {
			t.Errorf("Close took %v with a wedged peer, want about the %v grace", elapsed, grace)
		}
	})
}
