package broker

import (
	"encoding/binary"
	"sync"
	"testing"
)

// seqBodies returns n eight-byte bodies numbering from first.
func seqBodies(first, n int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = binary.BigEndian.AppendUint64(nil, uint64(first+i))
	}
	return bodies
}

func seqOf(d *Delivery) int { return int(binary.BigEndian.Uint64(d.Body)) }

// TestPullReceiveAllocatesNothing: in the steady state a pull consumer's
// receive and the batch settlement that follows allocate nothing — the
// receive refills the block of the consumer's last batch — for batches of one
// as for batches of 64.
func TestPullReceiveAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 64} {
		b := newTestBroker(t)
		mustDeclareFIFO(t, b, "q")
		const runs = 100
		if err := b.PublishBatch("q", seqBodies(0, (runs+1)*n)); err != nil {
			t.Fatal(err)
		}
		c, err := b.ConsumeBatch("q", n)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			ds, err := c.ReceiveBatch(n)
			if err != nil || len(ds) != n || seqOf(ds[0]) != next {
				t.Fatalf("batch of %d: got %d deliveries (%v), want %d from %d", n, len(ds), err, n, next)
			}
			next += n
			AckBatch(ds) //nolint:errcheck
		})
		if allocs != 0 {
			t.Errorf("batches of %d: receive + AckBatch allocates %.1f objects, want 0", n, allocs)
		}
		if s, _ := b.Stats("q"); s.Acked != uint64((runs+1)*n) || s.Unacked != 0 || s.Depth != 0 {
			t.Errorf("batches of %d: after the drain %+v", n, s)
		}
		c.Cancel()
	}
}

// TestHeldDeliveryKeepsItsBlock: a consumer still holding one unsettled
// delivery of batch A gets a fresh block for batch B. A's delivery still
// reads its own message, and settling it settles exactly that message; once
// nothing is held, the next receive refills A's block again.
func TestHeldDeliveryKeepsItsBlock(t *testing.T) {
	b := newTestBroker(t)
	mustDeclareFIFO(t, b, "q")
	if err := b.PublishBatch("q", seqBodies(0, 12)); err != nil {
		t.Fatal(err)
	}
	c, err := b.ConsumeBatch("q", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	a, err := c.ReceiveBatch(4)
	if err != nil || len(a) != 4 {
		t.Fatalf("batch A: %d deliveries, %v", len(a), err)
	}
	held, blockA := a[2], a[0]
	if err := AckBatch([]*Delivery{a[0], a[1], a[3]}); err != nil {
		t.Fatal(err)
	}
	bb, err := c.ReceiveBatch(4)
	if err != nil || len(bb) != 4 {
		t.Fatalf("batch B: %d deliveries, %v", len(bb), err)
	}
	for i, d := range bb {
		if d == blockA || d == held || d == a[1] || d == a[3] {
			t.Fatalf("batch B's delivery %d reuses batch A's block while A's delivery 2 is unsettled", i)
		}
		if seqOf(d) != 4+i {
			t.Fatalf("batch B's delivery %d holds message %d, want %d", i, seqOf(d), 4+i)
		}
	}
	if seqOf(held) != 2 {
		t.Fatalf("A's held delivery reads message %d after B, want 2", seqOf(held))
	}
	if err := held.Ack(); err != nil {
		t.Fatal(err)
	}
	if s, _ := b.Stats("q"); s.Acked != 4 || s.Unacked != 4 || s.Depth != 4 {
		t.Fatalf("settling A's held delivery: %+v, want 4 acked, B's 4 unacked, 4 ready", s)
	}
	for _, d := range bb {
		if err := d.Ack(); err != nil {
			t.Fatalf("B's message %d: %v", seqOf(d), err)
		}
	}
	next, err := c.ReceiveBatch(4)
	if err != nil || len(next) != 4 {
		t.Fatalf("batch C: %d deliveries, %v", len(next), err)
	}
	if next[0] != blockA || seqOf(next[0]) != 8 {
		t.Fatalf("with nothing held, batch C (from message %d) did not refill A's block", seqOf(next[0]))
	}
	AckBatch(next) //nolint:errcheck
}

// TestCancelReusesNothing: a consumer cancelled while it holds a batch lets
// its block go. The held deliveries still read their own messages, and the
// sweep settled them (requeued), so settling them again is refused; the
// consumer receives nothing more, and the consumer that gets the requeued
// messages gets blocks of its own.
func TestCancelReusesNothing(t *testing.T) {
	b := newTestBroker(t)
	mustDeclareFIFO(t, b, "q")
	if err := b.PublishBatch("q", seqBodies(0, 4)); err != nil {
		t.Fatal(err)
	}
	c, err := b.ConsumeBatch("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.ReceiveBatch(4)
	if err != nil || len(a) != 4 {
		t.Fatalf("batch A: %d deliveries, %v", len(a), err)
	}
	c.Cancel()
	if c.block != nil || c.ptrs != nil {
		t.Fatal("a cancelled consumer still keeps its last block")
	}
	if _, err := c.ReceiveBatch(4); err != ErrClosed {
		t.Fatalf("receive after Cancel = %v, want ErrClosed", err)
	}
	c2, err := b.ConsumeBatch("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Cancel()
	again, err := c2.ReceiveBatch(4)
	if err != nil || len(again) != 4 {
		t.Fatalf("redelivery: %d deliveries, %v", len(again), err)
	}
	for i := range a {
		if again[i] == a[i] {
			t.Fatalf("redelivery %d reuses the cancelled consumer's delivery", i)
		}
		if seqOf(a[i]) != i || seqOf(again[i]) != i {
			t.Fatalf("delivery %d: held reads %d, redelivered reads %d, want %d",
				i, seqOf(a[i]), seqOf(again[i]), i)
		}
		if err := a[i].Ack(); err != ErrAlreadyAcked {
			t.Fatalf("settling swept delivery %d = %v, want ErrAlreadyAcked", i, err)
		}
	}
	AckBatch(again) //nolint:errcheck
	if s, _ := b.Stats("q"); s.Acked != 4 || s.Nacked != 4 || s.Unacked != 0 || s.Depth != 0 {
		t.Fatalf("after the redelivery: %+v", s)
	}
}

// TestSettleElsewhereThenReceive hands every batch to another goroutine,
// which reads and settles it, while the receiving goroutine goes straight
// on to its next receive (run it under -race). The window holds one batch,
// so every receive waits for the settlement and refills the block the
// settling goroutine last read: the release of the window slots must order
// the two. Every message arrives once and in order.
func TestSettleElsewhereThenReceive(t *testing.T) {
	const total, batch = 4096, 16
	b := newTestBroker(t)
	mustDeclareFIFO(t, b, "q")
	if err := b.PublishBatch("q", seqBodies(0, total)); err != nil {
		t.Fatal(err)
	}
	c, err := b.ConsumeBatch("q", batch)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	batches := make(chan []*Delivery, 4)
	var settler sync.WaitGroup
	settler.Add(1)
	next := 0
	go func() {
		defer settler.Done()
		for ds := range batches {
			for _, d := range ds {
				if seqOf(d) != next {
					t.Errorf("got message %d, want %d", seqOf(d), next)
				}
				next++
			}
			AckBatch(ds) //nolint:errcheck
		}
	}()
	var first *Delivery
	for got := 0; got < total; {
		ds, err := c.ReceiveBatch(batch)
		if err != nil {
			t.Error(err)
			break
		}
		if first == nil {
			first = ds[0]
		} else if ds[0] != first {
			t.Errorf("the receive after message %d did not refill the consumer's block", got)
		}
		got += len(ds)
		batches <- ds
	}
	close(batches)
	settler.Wait()
	if t.Failed() {
		return
	}
	if next != total {
		t.Fatalf("settled %d messages, want %d", next, total)
	}
	if s, _ := b.Stats("q"); s.Acked != total || s.Unacked != 0 || s.Depth != 0 {
		t.Fatalf("after the drain: %+v", s)
	}
}
