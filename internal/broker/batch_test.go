package broker

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

func TestPublishBatchFIFOInterleaved(t *testing.T) {
	b := newTestBroker(t)
	mustDeclareFIFO(t, b, "q")
	// Interleave single publishes and batches; the drain order must be the
	// publish-call order with each batch occupying consecutive slots.
	var want []byte
	push := func(bodies ...byte) {
		batch := make([][]byte, len(bodies))
		for i, v := range bodies {
			batch[i] = []byte{v}
		}
		if len(batch) == 1 {
			if err := b.Publish("q", batch[0]); err != nil {
				t.Fatal(err)
			}
		} else if err := b.PublishBatch("q", batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, bodies...)
	}
	push(0)
	push(1, 2, 3)
	push(4)
	push(5, 6)
	push(7, 8, 9, 10)
	for i, w := range want {
		d, ok, _ := b.Get("q")
		if !ok {
			t.Fatalf("queue drained early at %d", i)
		}
		if d.Body[0] != w {
			t.Fatalf("position %d: got %d want %d", i, d.Body[0], w)
		}
		d.Ack()
	}
	if _, ok, _ := b.Get("q"); ok {
		t.Fatal("unexpected extra message")
	}
}

func TestPublishBatchEmptyIsNoop(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	if err := b.PublishBatch("q", nil); err != nil {
		t.Fatal(err)
	}
	s, _ := b.Stats("q")
	if s.Published != 0 || s.PublishBatches != 0 {
		t.Fatalf("empty batch mutated stats: %+v", s)
	}
}

func TestReceiveBatchDrainsInOrder(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	bodies := make([][]byte, 10)
	for i := range bodies {
		bodies[i] = []byte{byte(i)}
	}
	if err := b.PublishBatch("q", bodies); err != nil {
		t.Fatal(err)
	}
	c, err := b.ConsumeBatch("q", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	ds, err := c.ReceiveBatch(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 10 {
		t.Fatalf("batch size = %d, want 10", len(ds))
	}
	for i, d := range ds {
		if d.Body[0] != byte(i) {
			t.Fatalf("position %d: got %d", i, d.Body[0])
		}
	}
	if err := AckBatch(ds); err != nil {
		t.Fatal(err)
	}
	s, _ := b.Stats("q")
	if s.Acked != 10 || s.Unacked != 0 || s.Depth != 0 {
		t.Fatalf("stats after batch ack: %+v", s)
	}
}

func TestReceiveBatchBoundedByMaxAndPrefetch(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	for i := 0; i < 20; i++ {
		b.Publish("q", []byte{byte(i)})
	}
	c, err := b.ConsumeBatch("q", 6)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	ds, err := c.ReceiveBatch(4) // max < prefetch
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 4 {
		t.Fatalf("len = %d, want 4 (max)", len(ds))
	}
	ds2, err := c.ReceiveBatch(100) // prefetch window has 2 slots left
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2) != 2 {
		t.Fatalf("len = %d, want 2 (prefetch window)", len(ds2))
	}
	if err := AckBatch(append(ds, ds2...)); err != nil {
		t.Fatal(err)
	}
	ds3, err := c.ReceiveBatch(100) // window fully open again
	if err != nil {
		t.Fatal(err)
	}
	if len(ds3) != 6 {
		t.Fatalf("len = %d, want 6 after batch ack reopened window", len(ds3))
	}
	NackBatch(ds3, false) //nolint:errcheck
}

func TestNackBatchRequeuesAtFrontInOrder(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	if err := b.PublishBatch("q", [][]byte{{0}, {1}, {2}, {3}, {4}}); err != nil {
		t.Fatal(err)
	}
	c, err := b.ConsumeBatch("q", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	ds, err := c.ReceiveBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := NackBatch(ds, true); err != nil {
		t.Fatal(err)
	}
	// The nacked batch [0 1 2] must sit at the front, in order, ahead of
	// the untouched [3 4], and be flagged Redelivered.
	re, err := c.ReceiveBatch(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 5 {
		t.Fatalf("redelivery batch = %d messages, want 5", len(re))
	}
	for i, d := range re {
		if d.Body[0] != byte(i) {
			t.Fatalf("position %d: got %d want %d", i, d.Body[0], i)
		}
		if wantRe := i < 3; d.Redelivered != wantRe {
			t.Fatalf("position %d: redelivered = %v, want %v", i, d.Redelivered, wantRe)
		}
	}
	AckBatch(re) //nolint:errcheck
}

func TestBatchSettlementSkipsAlreadySettled(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	b.PublishBatch("q", [][]byte{{0}, {1}}) //nolint:errcheck
	c, _ := b.ConsumeBatch("q", 8)
	defer c.Cancel()
	ds, err := c.ReceiveBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds[0].Ack(); err != nil {
		t.Fatal(err)
	}
	if err := AckBatch(ds); err != nil { // ds[0] already settled: skipped
		t.Fatal(err)
	}
	if err := ds[1].Ack(); err != ErrAlreadyAcked {
		t.Fatalf("ack after batch settle = %v, want ErrAlreadyAcked", err)
	}
	s, _ := b.Stats("q")
	if s.Acked != 2 || s.Unacked != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestBatchCounters(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	b.PublishBatch("q", [][]byte{{0}, {1}, {2}}) //nolint:errcheck
	b.Publish("q", []byte{3})                    //nolint:errcheck
	c, _ := b.ConsumeBatch("q", 64)
	defer c.Cancel()
	ds, _ := c.ReceiveBatch(64)
	if err := NackBatch(ds, true); err != nil {
		t.Fatal(err)
	}
	ds, _ = c.ReceiveBatch(64)
	if err := AckBatch(ds); err != nil {
		t.Fatal(err)
	}
	s, _ := b.Stats("q")
	if s.PublishBatches != 1 {
		t.Fatalf("publish batches = %d, want 1", s.PublishBatches)
	}
	if s.DeliverBatches != 2 {
		t.Fatalf("deliver batches = %d, want 2", s.DeliverBatches)
	}
	if s.AckBatches != 1 || s.NackBatches != 1 {
		t.Fatalf("ack/nack batches = %d/%d, want 1/1", s.AckBatches, s.NackBatches)
	}
	if s.Published != 4 || s.Delivered != 8 || s.Acked != 4 || s.Nacked != 4 {
		t.Fatalf("message counters: %+v", s)
	}
	tot := b.TotalStats()
	if tot.PublishBatches != 1 || tot.DeliverBatches != 2 {
		t.Fatalf("total stats missing batch counters: %+v", tot)
	}
}

func TestPerOpDelayOncePerBatchOp(t *testing.T) {
	var ops int64
	b := New(Options{PerOpDelay: func() { atomic.AddInt64(&ops, 1) }})
	defer b.Close()
	b.DeclareQueue("q", QueueOptions{}) //nolint:errcheck
	if err := b.PublishBatch("q", [][]byte{{0}, {1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	c, _ := b.ConsumeBatch("q", 64)
	defer c.Cancel()
	ds, err := c.ReceiveBatch(64)
	if err != nil {
		t.Fatal(err)
	}
	AckBatch(ds)                             //nolint:errcheck
	if n := atomic.LoadInt64(&ops); n != 2 { // one batch publish + one batch receive
		t.Fatalf("per-op delay invoked %d times, want 2", n)
	}
}

func TestReceiveBatchRequiresPullConsumer(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	c, err := b.Consume("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	if _, err := c.ReceiveBatch(4); err == nil {
		t.Fatal("ReceiveBatch on push consumer succeeded")
	}
}

func TestCancelUnblocksReceiveBatchAndRequeues(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	b.Publish("q", []byte("keep")) //nolint:errcheck
	c, _ := b.ConsumeBatch("q", 8)
	ds, err := c.ReceiveBatch(8)
	if err != nil || len(ds) != 1 {
		t.Fatalf("receive: %v / %d deliveries", err, len(ds))
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := c.ReceiveBatch(8) // queue empty: blocks until cancel
		blocked <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Cancel()
	select {
	case err := <-blocked:
		if err != ErrClosed {
			t.Fatalf("blocked ReceiveBatch returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not unblock ReceiveBatch")
	}
	// The unacked delivery must be requeued, flagged Redelivered.
	d, ok, _ := b.Get("q")
	if !ok || !d.Redelivered || string(d.Body) != "keep" {
		t.Fatalf("requeued after cancel: ok=%v %+v", ok, d)
	}
	d.Ack()
}

func TestDurableRecoverBatchedPublishes(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "broker.journal")
	j, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := New(Options{Journal: j})
	// Single shard: the test asserts strict recovery drain order; sharded
	// replay is covered in shard_test.go.
	if err := b.DeclareQueue("pending", QueueOptions{Durable: true, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	// One batch publish, one single publish, then batch-ack a prefix.
	if err := b.PublishBatch("pending", [][]byte{{0}, {1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("pending", []byte{4}); err != nil {
		t.Fatal(err)
	}
	c, err := b.ConsumeBatch("pending", 8)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.ReceiveBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := AckBatch(ds); err != nil {
		t.Fatal(err)
	}
	b.Close()
	j.Close()

	// "Restart": the journal holds one batch publish record, one single
	// publish record and one batch ack record.
	j2, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	b2 := New(Options{Journal: j2})
	defer b2.Close()
	b2.DeclareQueue("pending", QueueOptions{Durable: true, Shards: 1}) //nolint:errcheck
	if err := b2.Recover(jpath); err != nil {
		t.Fatal(err)
	}
	var bodies []byte
	for {
		d, ok, _ := b2.Get("pending")
		if !ok {
			break
		}
		if !d.Redelivered {
			t.Fatal("recovered message not flagged redelivered")
		}
		bodies = append(bodies, d.Body[0])
		d.Ack()
	}
	if string(bodies) != string([]byte{2, 3, 4}) {
		t.Fatalf("recovered %v, want [2 3 4]", bodies)
	}
}

// TestBatchConservationConcurrent hammers the batch paths from several
// producers and pull consumers; run under -race in CI. Conservation must
// hold: every published message is acked exactly once.
func TestBatchConservationConcurrent(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	const producers, consumers, batches, batchSize = 4, 4, 50, 16
	total := producers * batches * batchSize

	var acked int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		c, err := b.ConsumeBatch("q", 2*batchSize)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Consumer) {
			defer wg.Done()
			for {
				ds, err := c.ReceiveBatch(batchSize)
				if err != nil {
					return
				}
				if err := AckBatch(ds); err != nil {
					t.Error(err)
					return
				}
				if atomic.AddInt64(&acked, int64(len(ds))) == int64(total) {
					close(done)
				}
			}
		}(c)
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				batch := make([][]byte, batchSize)
				for k := range batch {
					batch[k] = []byte{byte(p), byte(i), byte(k)}
				}
				if err := b.PublishBatch("q", batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("acked %d of %d", atomic.LoadInt64(&acked), total)
	}
	s, _ := b.Stats("q")
	if s.Published != uint64(total) || s.Acked != uint64(total) || s.Depth != 0 || s.Unacked != 0 {
		t.Fatalf("conservation violated: %+v", s)
	}
	b.Close()
	wg.Wait()
}

// TestOneMessagePopOwnsItsDelivery: a batch of one is a single allocation
// holding the delivery and the slice that points at it, and it is the
// caller's like any other — the next pops, each one message too, hand out
// deliveries of their own and disturb nothing of it while it is unacked.
func TestOneMessagePopOwnsItsDelivery(t *testing.T) {
	b := newTestBroker(t)
	mustDeclareFIFO(t, b, "q")
	for i := byte(0); i < 4; i++ {
		if err := b.Publish("q", []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.ConsumeBatch("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	pop := func() *Delivery {
		t.Helper()
		ds, err := c.ReceiveBatch(1)
		if err != nil || len(ds) != 1 {
			t.Fatalf("ReceiveBatch(1) = %d deliveries, %v", len(ds), err)
		}
		return ds[0]
	}
	first, second, third := pop(), pop(), pop()
	for i, d := range []*Delivery{first, second, third} {
		if d.Body[0] != byte(i) || d.Redelivered {
			t.Fatalf("pop %d holds message %d (redelivered %v) after later pops", i, d.Body[0], d.Redelivered)
		}
	}
	if s, _ := b.Stats("q"); s.Unacked != 3 || s.Depth != 1 {
		t.Fatalf("three one-message pops outstanding: %+v", s)
	}
	// Settled out of order: the ledger unlinks each delivery where it stands.
	if err := second.Ack(); err != nil {
		t.Fatal(err)
	}
	if err := second.Ack(); err != ErrAlreadyAcked {
		t.Fatalf("second ack = %v, want ErrAlreadyAcked", err)
	}
	if err := third.Nack(true); err != nil {
		t.Fatal(err)
	}
	if err := first.Nack(true); err != nil {
		t.Fatal(err)
	}
	// Requeued at the front, last nacked first: 0, 2, then the untouched 3.
	for _, want := range []byte{0, 2, 3} {
		d := pop()
		if d.Body[0] != want || d.Redelivered != (want != 3) {
			t.Fatalf("after the requeues got message %d (redelivered %v), want %d", d.Body[0], d.Redelivered, want)
		}
		if err := d.Ack(); err != nil {
			t.Fatal(err)
		}
	}
	if s, _ := b.Stats("q"); s.Unacked != 0 || s.Depth != 0 || s.Acked != 4 || s.Nacked != 2 {
		t.Fatalf("settled: %+v", s)
	}

	// What it buys: one allocation per one-message pop, and the
	// publish/get/ack round trip BenchmarkBrokerPublishConsume times still
	// costs exactly its one delivery.
	body := []byte{9}
	if allocs := testing.AllocsPerRun(100, func() {
		b.Publish("q", body) //nolint:errcheck
		pop().Ack()          //nolint:errcheck
	}); allocs != 1 {
		t.Errorf("publish + one-message pop + ack allocates %.1f objects, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		b.Publish("q", body) //nolint:errcheck
		d, _, _ := b.Get("q")
		d.Ack() //nolint:errcheck
	}); allocs != 1 {
		t.Errorf("publish + get + ack allocates %.1f objects, want 1", allocs)
	}
}
