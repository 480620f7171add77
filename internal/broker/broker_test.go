package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func newTestBroker(t *testing.T) *Broker {
	t.Helper()
	b := New(Options{})
	t.Cleanup(b.Close)
	return b
}

func mustDeclare(t *testing.T, b *Broker, name string) {
	t.Helper()
	if err := b.DeclareQueue(name, QueueOptions{}); err != nil {
		t.Fatal(err)
	}
}

// mustDeclareFIFO declares a single-shard queue: strict global FIFO across
// every publish operation is a Shards: 1 guarantee (sharded queues keep
// FIFO per shard / per producer — see shard_test.go).
func mustDeclareFIFO(t *testing.T, b *Broker, name string) {
	t.Helper()
	if err := b.DeclareQueue(name, QueueOptions{Shards: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPublishGetAck(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	if err := b.Publish("q", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	d, ok, err := b.Get("q")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if string(d.Body) != "hello" {
		t.Fatalf("body = %q", d.Body)
	}
	if d.Redelivered {
		t.Fatal("fresh message marked redelivered")
	}
	if err := d.Ack(); err != nil {
		t.Fatal(err)
	}
	s, _ := b.Stats("q")
	if s.Depth != 0 || s.Unacked != 0 || s.Acked != 1 || s.Published != 1 {
		t.Fatalf("stats after ack: %+v", s)
	}
}

func TestGetEmptyQueue(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	_, ok, err := b.Get("q")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("got message from empty queue")
	}
}

func TestPublishToUnknownQueue(t *testing.T) {
	b := newTestBroker(t)
	if err := b.Publish("nope", nil); err == nil {
		t.Fatal("expected error for unknown queue")
	}
}

func TestDoubleDeclareFails(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	if err := b.DeclareQueue("q", QueueOptions{}); err == nil {
		t.Fatal("expected ErrQueueExists")
	}
}

func TestFIFOOrder(t *testing.T) {
	b := newTestBroker(t)
	mustDeclareFIFO(t, b, "q")
	for i := 0; i < 20; i++ {
		if err := b.Publish("q", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		d, ok, _ := b.Get("q")
		if !ok {
			t.Fatalf("queue drained early at %d", i)
		}
		if d.Body[0] != byte(i) {
			t.Fatalf("out of order: got %d want %d", d.Body[0], i)
		}
		d.Ack()
	}
}

func TestNackRequeueGoesToFront(t *testing.T) {
	b := newTestBroker(t)
	mustDeclareFIFO(t, b, "q")
	b.Publish("q", []byte("a"))
	b.Publish("q", []byte("b"))
	d, _, _ := b.Get("q")
	if string(d.Body) != "a" {
		t.Fatalf("got %q", d.Body)
	}
	if err := d.Nack(true); err != nil {
		t.Fatal(err)
	}
	d2, _, _ := b.Get("q")
	if string(d2.Body) != "a" {
		t.Fatalf("requeued message not at front: got %q", d2.Body)
	}
	if !d2.Redelivered {
		t.Fatal("requeued message not flagged redelivered")
	}
	d2.Ack()
}

func TestNackDropDiscards(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	b.Publish("q", []byte("x"))
	d, _, _ := b.Get("q")
	if err := d.Nack(false); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Get("q"); ok {
		t.Fatal("dropped message still present")
	}
	s, _ := b.Stats("q")
	if s.Nacked != 1 {
		t.Fatalf("nacked = %d", s.Nacked)
	}
}

func TestDoubleAckFails(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	b.Publish("q", []byte("x"))
	d, _, _ := b.Get("q")
	if err := d.Ack(); err != nil {
		t.Fatal(err)
	}
	if err := d.Ack(); err != ErrAlreadyAcked {
		t.Fatalf("second ack err = %v, want ErrAlreadyAcked", err)
	}
	if err := d.Nack(true); err != ErrAlreadyAcked {
		t.Fatalf("nack after ack err = %v, want ErrAlreadyAcked", err)
	}
}

func TestConsumerReceivesPublished(t *testing.T) {
	b := newTestBroker(t)
	mustDeclareFIFO(t, b, "q")
	c, err := b.Consume("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	go func() {
		for i := 0; i < 10; i++ {
			b.Publish("q", []byte{byte(i)})
		}
	}()
	for i := 0; i < 10; i++ {
		select {
		case d := <-c.Deliveries():
			if d.Body[0] != byte(i) {
				t.Fatalf("out of order: got %d want %d", d.Body[0], i)
			}
			d.Ack()
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
}

func TestPrefetchLimitsInflight(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	for i := 0; i < 10; i++ {
		b.Publish("q", []byte{byte(i)})
	}
	c, err := b.Consume("q", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()

	var got []*Delivery
	for len(got) < 2 {
		select {
		case d := <-c.Deliveries():
			got = append(got, d)
		case <-time.After(2 * time.Second):
			t.Fatal("timeout filling prefetch window")
		}
	}
	// With prefetch 2 and nothing acked, no third delivery may arrive.
	select {
	case <-c.Deliveries():
		t.Fatal("received delivery beyond prefetch window")
	case <-time.After(50 * time.Millisecond):
	}
	got[0].Ack()
	select {
	case d := <-c.Deliveries():
		d.Ack()
	case <-time.After(2 * time.Second):
		t.Fatal("ack did not open the prefetch window")
	}
	got[1].Ack()
}

func TestConsumerCancelRequeuesUnacked(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	b.Publish("q", []byte("keep"))
	c, _ := b.Consume("q", 1)
	var d *Delivery
	select {
	case d = <-c.Deliveries():
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
	_ = d // unacked on purpose
	c.Cancel()
	d2, ok, _ := b.Get("q")
	if !ok {
		t.Fatal("unacked message lost after consumer cancel")
	}
	if !d2.Redelivered || string(d2.Body) != "keep" {
		t.Fatalf("bad requeued message: %+v", d2.Message)
	}
	d2.Ack()
}

func TestMultipleProducersConsumers(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	const producers, consumers, perProducer = 4, 4, 250
	total := producers * perProducer

	var consumed int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < consumers; i++ {
		c, err := b.Consume("q", 8)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Consumer) {
			defer wg.Done()
			for {
				select {
				case d, ok := <-c.Deliveries():
					if !ok {
						return
					}
					d.Ack()
					if atomic.AddInt64(&consumed, 1) == int64(total) {
						close(done)
					}
				case <-done:
					return
				}
			}
		}(c)
	}
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < perProducer; i++ {
				b.Publish("q", []byte(fmt.Sprintf("p%d-%d", p, i)))
			}
		}(p)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("consumed %d of %d", atomic.LoadInt64(&consumed), total)
	}
	b.Close()
	wg.Wait()
}

func TestDeleteQueue(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	if err := b.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("q", nil); err == nil {
		t.Fatal("publish to deleted queue succeeded")
	}
	if err := b.DeleteQueue("q"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestCloseClosesConsumers(t *testing.T) {
	b := New(Options{})
	b.DeclareQueue("q", QueueOptions{})
	c, _ := b.Consume("q", 1)
	b.Close()
	select {
	case _, ok := <-c.Deliveries():
		if ok {
			t.Fatal("received delivery after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deliveries channel not closed")
	}
	if err := b.Publish("q", nil); err == nil {
		t.Fatal("publish after close succeeded")
	}
}

func TestPeakStats(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	for i := 0; i < 7; i++ {
		b.Publish("q", []byte("0123456789"))
	}
	for i := 0; i < 7; i++ {
		d, _, _ := b.Get("q")
		d.Ack()
	}
	s, _ := b.Stats("q")
	if s.PeakDepth != 7 {
		t.Fatalf("peak depth = %d, want 7", s.PeakDepth)
	}
	if s.Depth != 0 || s.Unacked != 0 {
		t.Fatalf("depth %d, unacked %d after drain", s.Depth, s.Unacked)
	}
}

func TestPerOpDelayInvoked(t *testing.T) {
	var ops int64
	b := New(Options{PerOpDelay: func() { atomic.AddInt64(&ops, 1) }})
	defer b.Close()
	b.DeclareQueue("q", QueueOptions{})
	b.Publish("q", []byte("x"))
	d, _, _ := b.Get("q")
	d.Ack()
	if n := atomic.LoadInt64(&ops); n != 2 { // one publish + one get
		t.Fatalf("per-op delay invoked %d times, want 2", n)
	}
}

// Property: for any sequence of payloads, publish-then-drain preserves
// content and order, and conservation holds (published = acked + depth).
func TestConservationProperty(t *testing.T) {
	f := func(bodies [][]byte) bool {
		b := New(Options{})
		defer b.Close()
		// Single shard: the property asserts strict global drain order.
		b.DeclareQueue("q", QueueOptions{Shards: 1})
		for _, body := range bodies {
			if err := b.Publish("q", body); err != nil {
				return false
			}
		}
		drained := 0
		for {
			d, ok, _ := b.Get("q")
			if !ok {
				break
			}
			if string(d.Body) != string(bodies[drained]) {
				return false
			}
			d.Ack()
			drained++
		}
		s, _ := b.Stats("q")
		return drained == len(bodies) && s.Published == uint64(len(bodies)) &&
			s.Acked == uint64(len(bodies)) && s.Depth == 0 && s.Unacked == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalStatsAggregates(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "a")
	mustDeclare(t, b, "b")
	b.Publish("a", []byte("1"))
	b.Publish("b", []byte("2"))
	b.Publish("b", []byte("3"))
	tot := b.TotalStats()
	if tot.Published != 3 || tot.Depth != 3 {
		t.Fatalf("total stats: %+v", tot)
	}
}
