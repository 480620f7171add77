package broker

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// shardDepths is the ready depth of each of the named queue's shards.
func shardDepths(t *testing.T, b *Broker, name string) []int {
	t.Helper()
	q, err := b.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	depths := make([]int, len(q.shards))
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		depths[i] = sh.ready.Len()
		sh.mu.Unlock()
	}
	return depths
}

// declareSharded declares a queue with an explicit shard count so the tests
// exercise sharded behaviour regardless of this machine's GOMAXPROCS.
func declareSharded(t *testing.T, b *Broker, name string, shards int) {
	t.Helper()
	if err := b.DeclareQueue(name, QueueOptions{Shards: shards}); err != nil {
		t.Fatal(err)
	}
}

func TestShardsResolveDefault(t *testing.T) {
	b := newTestBroker(t)
	mustDeclare(t, b, "q")
	s, err := b.Stats("q")
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultShards()
	if s.Shards != want {
		t.Fatalf("default shards = %d, want %d", s.Shards, want)
	}
	if depths := shardDepths(t, b, "q"); len(depths) != want {
		t.Fatalf("shard depths = %v, want %d entries", depths, want)
	}
}

// TestShardedPublishSpreads verifies round-robin placement: stateless
// publishes land on successive shards, a batch stays contiguous in one.
func TestShardedPublishSpreads(t *testing.T) {
	b := newTestBroker(t)
	declareSharded(t, b, "q", 4)
	for i := 0; i < 8; i++ {
		if err := b.Publish("q", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	depths := shardDepths(t, b, "q")
	for i, d := range depths {
		if d != 2 {
			t.Fatalf("shard %d depth = %d, want 2 (%v)", i, d, depths)
		}
	}
	if err := b.PublishBatch("q", [][]byte{{8}, {9}, {10}}); err != nil {
		t.Fatal(err)
	}
	depths = shardDepths(t, b, "q")
	found := false
	for _, d := range depths {
		if d == 5 { // 2 singles + the whole 3-message batch
			found = true
		}
	}
	if !found {
		t.Fatalf("batch not contiguous in one shard: depths %v", depths)
	}
}

// payload is what a test message carries: a Producer publishes values, the
// Broker's own forms bodies.
func payload(d *Delivery) []byte {
	if v, ok := d.Value.([]byte); ok {
		return v
	}
	return d.Body
}

// prodSeqBody encodes (producer, sequence) so consumers can check ordering.
func prodSeqBody(producer, seq int) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint32(buf, uint32(producer))
	binary.BigEndian.PutUint32(buf[4:], uint32(seq))
	return buf
}

// TestShardedPerProducerFIFO is the sharded ordering contract: with 4
// shard-pinned producers and 4 pull consumers running concurrently, every
// consumer must observe each producer's messages in strictly increasing
// sequence order, even though global ordering across producers is relaxed.
func TestShardedPerProducerFIFO(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 500
	b := newTestBroker(t)
	declareSharded(t, b, "q", 4)
	total := int64(producers * perProducer)

	var consumed atomic.Int64
	done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup

	type obs struct {
		mu   sync.Mutex
		last map[int]int // producer -> last sequence this consumer saw
	}
	conss := make([]*Consumer, consumers)
	for ci := 0; ci < consumers; ci++ {
		c, err := b.ConsumeBatch("q", 64)
		if err != nil {
			t.Fatal(err)
		}
		conss[ci] = c
		o := &obs{last: make(map[int]int)}
		wg.Add(1)
		go func(ci int, c *Consumer) {
			defer wg.Done()
			for {
				ds, err := c.ReceiveBatch(32)
				if err != nil {
					return
				}
				o.mu.Lock()
				for _, d := range ds {
					p := int(binary.BigEndian.Uint32(payload(d)))
					seq := int(binary.BigEndian.Uint32(payload(d)[4:]))
					if last, ok := o.last[p]; ok && seq <= last {
						t.Errorf("consumer %d: producer %d seq %d after %d", ci, p, seq, last)
					}
					o.last[p] = seq
				}
				o.mu.Unlock()
				if err := AckBatch(ds); err != nil {
					t.Error(err)
				}
				if consumed.Add(int64(len(ds))) >= total {
					once.Do(func() { close(done) })
				}
			}
		}(ci, c)
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			prod, err := b.Producer("q")
			if err != nil {
				t.Error(err)
				return
			}
			for seq := 0; seq < perProducer; seq++ {
				if seq%3 == 0 {
					// Mix batch and single publishes on the same producer.
					if err := prod.PublishValues([]any{prodSeqBody(p, seq)}); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := prod.PublishValue(prodSeqBody(p, seq)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("consumed %d of %d", consumed.Load(), total)
	}
	s, _ := b.Stats("q")
	if s.Acked != uint64(total) || s.Unacked != 0 || s.Depth != 0 {
		t.Fatalf("conservation violated: %+v", s)
	}
	b.Close()
	wg.Wait()
}

// TestShardedWorkStealingDrainsHotShard pins one producer's entire load to
// a single shard that no consumer prefers and lets consumers whose preferred
// shards are elsewhere drain it: everything must be consumed, and every pop
// must be recorded as a steal. (With a consumer preferring the hot shard, that
// one consumer could drain it alone, as it did in a few percent of -race runs.)
func TestShardedWorkStealingDrainsHotShard(t *testing.T) {
	const consumers, msgs = 4, 400
	b := newTestBroker(t)
	declareSharded(t, b, "q", consumers+1)

	var consumed atomic.Int64
	done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for ci := 0; ci < consumers; ci++ {
		c, err := b.ConsumeBatch("q", 32)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Consumer) {
			defer wg.Done()
			for {
				ds, err := c.ReceiveBatch(16)
				if err != nil {
					return
				}
				if err := AckBatch(ds); err != nil {
					t.Error(err)
				}
				if consumed.Add(int64(len(ds))) >= msgs {
					once.Do(func() { close(done) })
				}
			}
		}(c)
	}
	// One shard-pinned producer: the whole load lands on one "hot" shard,
	// the one shard no consumer prefers (consumers take shards 0..3 in
	// registration order).
	var prod *Producer
	for prod == nil || prod.sh.idx != consumers {
		var err error
		if prod, err = b.Producer("q"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		if err := prod.PublishValue([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("hot shard not drained: consumed %d of %d", consumed.Load(), msgs)
	}
	s, _ := b.Stats("q")
	if s.Acked != msgs {
		t.Fatalf("acked = %d, want %d", s.Acked, msgs)
	}
	// Only the hot shard ever holds messages and no consumer prefers it, so
	// every pop that delivered took one segment from it: a steal each.
	if s.Steals == 0 || s.Steals != s.DeliverBatches {
		t.Fatalf("draining a hot shard nobody prefers: %d steals in %d pops: %+v", s.Steals, s.DeliverBatches, s)
	}
	b.Close()
	wg.Wait()
}

// TestShardedNackRequeuesToOwnShard proves requeue-at-front is shard-local:
// a nacked message must be redelivered from the shard it was first
// delivered from, at its front.
func TestShardedNackRequeuesToOwnShard(t *testing.T) {
	b := newTestBroker(t)
	declareSharded(t, b, "q", 4)
	// Pin two producers to different shards and fill both.
	p0, err := b.Producer("q")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := b.Producer("q")
	if err != nil {
		t.Fatal(err)
	}
	if err := p0.PublishValues([]any{[]byte{0}, []byte{1}, []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if err := p1.PublishValues([]any{[]byte{10}, []byte{11}}); err != nil {
		t.Fatal(err)
	}
	before := shardDepths(t, b, "q")

	c, err := b.ConsumeBatch("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	// Drain everything, find p0's batch head (body 0), nack-requeue it.
	var all []*Delivery
	for len(all) < 5 {
		ds, err := c.ReceiveBatch(8)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ds...)
	}
	var target *Delivery
	for _, d := range all {
		if payload(d)[0] == 0 {
			target = d
		}
	}
	if target == nil {
		t.Fatal("message 0 not delivered")
	}
	if err := target.Nack(true); err != nil {
		t.Fatal(err)
	}
	mid := shardDepths(t, b, "q")
	// The requeued message must sit in the same shard p0's batch occupied.
	wantShard := -1
	for i, d := range before {
		if d == 3 {
			wantShard = i
		}
	}
	if wantShard < 0 {
		t.Fatalf("cannot locate p0's shard in %v", before)
	}
	for i, d := range mid {
		want := 0
		if i == wantShard {
			want = 1
		}
		if d != want {
			t.Fatalf("shard %d depth = %d, want %d (depths %v)", i, d, want, mid)
		}
	}
	re, err := c.ReceiveBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 1 || payload(re[0])[0] != 0 {
		t.Fatalf("redelivery = %+v", re)
	}
	// Settle everything exactly once; a second settlement must fail.
	if err := AckBatch(append(all, re...)); err != nil {
		t.Fatal(err)
	}
	if err := re[0].Ack(); err != ErrAlreadyAcked {
		t.Fatalf("double settle = %v, want ErrAlreadyAcked", err)
	}
	s, _ := b.Stats("q")
	if s.Acked != 5 || s.Nacked != 1 || s.Unacked != 0 || s.Depth != 0 {
		t.Fatalf("settlement counters: %+v", s)
	}
}

// TestShardedConservationUnderConcurrency hammers a sharded queue from
// stateless producers, Producer handles and mixed consumers under -race:
// every message is settled exactly once whatever shard it crossed.
func TestShardedConservationUnderConcurrency(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 300
	b := newTestBroker(t)
	declareSharded(t, b, "q", 8)
	total := int64(2 * producers * perProducer) // stateless + pinned

	var consumed atomic.Int64
	done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for ci := 0; ci < consumers; ci++ {
		if ci%2 == 0 {
			c, err := b.ConsumeBatch("q", 64)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(c *Consumer) {
				defer wg.Done()
				for {
					ds, err := c.ReceiveBatch(32)
					if err != nil {
						return
					}
					if err := AckBatch(ds); err != nil {
						t.Error(err)
					}
					if consumed.Add(int64(len(ds))) >= total {
						once.Do(func() { close(done) })
					}
				}
			}(c)
			continue
		}
		c, err := b.Consume("q", 32)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Consumer) {
			defer wg.Done()
			for d := range c.Deliveries() {
				if err := d.Ack(); err != nil {
					t.Error(err)
				}
				if consumed.Add(1) >= total {
					once.Do(func() { close(done) })
				}
			}
		}(c)
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			prod, err := b.Producer("q")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perProducer; i++ {
				if err := b.Publish("q", prodSeqBody(p, i)); err != nil {
					t.Error(err)
					return
				}
				if err := prod.PublishValue(prodSeqBody(100+p, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumed %d of %d", consumed.Load(), total)
	}
	s, _ := b.Stats("q")
	if s.Published != uint64(total) || s.Acked < uint64(total) {
		t.Fatalf("conservation: %+v", s)
	}
	b.Close()
	wg.Wait()
}

// TestShardsOneMatchesLegacySemantics spot-checks that Shards: 1 keeps the
// original strict global FIFO across stateless publishes and batches.
func TestShardsOneMatchesLegacySemantics(t *testing.T) {
	b := newTestBroker(t)
	declareSharded(t, b, "q", 1)
	b.Publish("q", []byte{0})               //nolint:errcheck
	b.PublishBatch("q", [][]byte{{1}, {2}}) //nolint:errcheck
	b.Publish("q", []byte{3})               //nolint:errcheck
	for i := 0; i < 4; i++ {
		d, ok, _ := b.Get("q")
		if !ok || d.Body[0] != byte(i) {
			t.Fatalf("position %d: ok=%v body=%v", i, ok, d)
		}
		d.Ack()
	}
	s, _ := b.Stats("q")
	if s.Shards != 1 || s.Steals != 0 {
		t.Fatalf("single-shard stats: %+v", s)
	}
}

// TestShardStatsObservability checks the new stats surface: shard count,
// per-shard depths and steal counts aggregate into TotalStats.
func TestShardStatsObservability(t *testing.T) {
	b := newTestBroker(t)
	declareSharded(t, b, "a", 2)
	declareSharded(t, b, "b", 3)
	b.Publish("a", []byte("x")) //nolint:errcheck
	tot := b.TotalStats()
	if tot.Shards != 5 {
		t.Fatalf("total shards = %d, want 5", tot.Shards)
	}
	if tot.Depth != 1 {
		t.Fatalf("total depth = %d", tot.Depth)
	}
}

// A queue's shards sit side by side in one block, so a shard must fill whole
// cache lines or two neighbours' locks would share one; and the publish
// cursor must not share a line with the fields every pop reads.
func TestShardFillsWholeCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(qshard{}); size%64 != 0 {
		t.Fatalf("qshard is %d bytes; adjust its padding to a multiple of 64", size)
	}
	if off := unsafe.Offsetof(queue{}.pubCursor); off != 64 {
		t.Fatalf("queue.pubCursor is at offset %d; adjust the padding before it to 64", off)
	}
}

// A consumer can only be attached to a queue that is still open: one that
// arrives while the broker is being closed is refused, not left registered
// on a queue nobody will ever close again. (A run's lazily made sync
// clients can arrive exactly then.)
func TestConsumeRacingCloseIsRefusedOrCancelled(t *testing.T) {
	for i := 0; i < 200; i++ {
		b := New(Options{})
		declareSharded(t, b, "q", 1)
		got := make(chan *Consumer, 1)
		go func() {
			c, err := b.ConsumeBatch("q", 1)
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("ConsumeBatch: %v", err)
			}
			got <- c
		}()
		b.Close()
		if c := <-got; c != nil {
			// Attached before the close: the close must have cancelled it.
			if _, err := c.ReceiveBatch(1); !errors.Is(err, ErrClosed) {
				t.Fatalf("ReceiveBatch on a consumer of a closed broker: %v", err)
			}
			c.q.mu.Lock()
			n := len(c.q.consumers)
			c.q.mu.Unlock()
			if n != 0 {
				t.Fatalf("closed queue still lists %d consumers", n)
			}
		}
	}
	b := newTestBroker(t)
	q := newQueue(b, QueueOptions{Shards: 1})
	q.close()
	if _, err := q.consumeBatch(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("consumeBatch on a closed queue: %v", err)
	}
	if _, err := q.consume(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("consume on a closed queue: %v", err)
	}
}
