// Package broker implements the in-process message broker that substitutes
// RabbitMQ in this reproduction (paper §II-C).
//
// EnTK relies on the broker for three properties the paper calls out
// explicitly: (1) producers and consumers are topology-unaware and interact
// only with the broker; (2) messages survive component failures (durability
// plus acknowledgements); and (3) production and consumption are asynchronous
// because the broker buffers. This package reproduces those semantics with
// named queues, per-consumer prefetch, ack/nack with requeue, optional
// journal-backed durability, and per-queue statistics used by the Fig 6
// prototype benchmark.
//
// # Batched fast path
//
// The per-message API (Publish, Get, Consume, Delivery.Ack/Nack) pays one
// queue-lock round-trip — and for durable queues one journal append — per
// message. The batch API amortizes both over N messages: PublishBatch
// appends N bodies under one lock acquisition and one journal record;
// ConsumeBatch registers a pull-mode consumer whose ReceiveBatch pops up to
// N ready messages per lock round-trip; AckBatch and NackBatch settle N
// deliveries per queue with one lock acquisition and (for acks on durable
// queues) one journal record. This is the substrate for EnTK's bulk
// messages, which keep queue traffic O(stages) rather than O(tasks)
// (paper §II-C, Fig 6).
//
// Ordering guarantees are identical on both paths and they interleave
// freely on one queue: a batch occupies consecutive FIFO slots of one
// shard in publish-call order, delivery drains each shard's head in FIFO
// order regardless of how messages arrived, and NackBatch with requeue
// returns the batch to the front of the shards it came from preserving the
// batch's per-shard order (the batch analogue of single Nack's
// requeue-at-front). On a Shards: 1 queue these collapse to the strict
// global guarantees of the original single-lock queue — see the sharding
// section below for what relaxes when Shards > 1. Messages redelivered
// after a requeue carry Redelivered=true exactly as on the single path.
// Options.PerOpDelay is charged once per batch operation instead of once
// per message — batching amortizes the modelled broker traversal the same
// way it amortizes the real lock.
//
// # Sharded ready rings
//
// Each queue's ready storage is split into QueueOptions.Shards independently
// locked ring-deques (default min(GOMAXPROCS, 8)). Publish operations land
// on shards round-robin — a batch stays contiguous in one shard, and a
// Producer handle pins all its publishes to one shard — while consumers pop
// from a preferred shard assigned round-robin at registration, stealing
// from the next non-empty shard when theirs runs dry. Concurrent producers
// and consumers therefore fan out across shard locks instead of serializing
// on one queue mutex.
//
// Sharding trades global ordering for scalability, exactly like a
// partitioned topic: delivery is FIFO per shard, so a queue declared with
// Shards: 1 keeps the strict global FIFO of the original single-lock queue,
// and on a sharded queue every publisher that goes through a Producer
// handle gets per-producer FIFO — each consumer observes that producer's
// messages in publish order. Nacked messages requeue at the front of the
// shard they were delivered from (the batch analogue preserves the batch's
// per-shard order), settlement stays exactly-once via the per-shard unacked
// ledgers, and durable-journal replay redistributes recovered messages
// across shards in replay order.
package broker

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/journal"
	"repro/internal/msgcodec"
)

// Errors returned by broker operations.
var (
	ErrClosed       = errors.New("broker: closed")
	ErrNoQueue      = errors.New("broker: no such queue")
	ErrQueueExists  = errors.New("broker: queue already declared")
	ErrAlreadyAcked = errors.New("broker: message already acknowledged")

	errPushConsumer = errors.New("broker: ReceiveBatch requires a pull-mode consumer (ConsumeBatch)")
)

// Message is a unit of data in transit through the broker.
type Message struct {
	// ID is unique per broker instance.
	ID uint64
	// Body is the opaque payload.
	Body []byte
	// Redelivered is true when the message was previously delivered and
	// returned to the queue via Nack(requeue=true) or consumer cancellation.
	Redelivered bool
}

// Delivery is a message handed to a consumer. Exactly one of Ack or Nack
// must be called; until then the message is "unacked" and is redelivered if
// the consumer is cancelled.
type Delivery struct {
	Message
	q  *queue
	sh *qshard // shard the message was delivered from (requeue target)
	c  *Consumer

	// Intrusive unacked-ledger links, guarded by sh.mu. The ledger makes
	// register/settle O(1) pointer writes instead of hash-map operations —
	// the dominant per-message cost on the delivery hot path — and its
	// membership bit doubles as the exactly-once settlement claim, so no
	// separate sync.Once is needed.
	prev, next *Delivery
	listed     bool
}

// Ack acknowledges the delivery, removing the message permanently. Settling
// a delivery twice (any mix of Ack, Nack and the batch settlements) returns
// ErrAlreadyAcked: the unacked ledger is the single claim, checked under
// the shard lock.
func (d *Delivery) Ack() error {
	return d.q.settle(d, false, false)
}

// Nack rejects the delivery. With requeue, the message returns to the front
// of the queue flagged Redelivered; otherwise it is dropped.
func (d *Delivery) Nack(requeue bool) error {
	return d.q.settle(d, true, requeue)
}

// QueueStats is a snapshot of one queue's counters.
type QueueStats struct {
	Name    string
	Depth   int // messages ready for delivery
	Unacked int // delivered but not yet acked
	// PeakDepth and PeakBytes are the sums of each shard's high-water
	// marks. For sequential workloads (and on Shards: 1 queues) that is
	// exactly the maximum observed; under concurrency shards can peak at
	// different moments, so the sum is an upper bound on the true global
	// peak.
	PeakDepth int
	PeakBytes int64
	Published uint64 // total messages published
	Delivered uint64 // total deliveries (including redeliveries)
	Acked     uint64
	Nacked    uint64
	Bytes     int64 // bytes currently held (ready + unacked)

	// Shard observability: the resolved shard count, the per-shard ready
	// depths, and how many pops a consumer served from a shard other than
	// its preferred one (work-stealing).
	Shards      int
	ShardDepths []int
	Steals      uint64

	// Batch-path counters: one increment per batch operation (not per
	// message), so Published/PublishBatches gives the realized batch size.
	PublishBatches uint64 // PublishBatch calls
	DeliverBatches uint64 // ReceiveBatch calls that delivered messages
	AckBatches     uint64 // AckBatch settlements applied to this queue
	NackBatches    uint64 // NackBatch settlements applied to this queue
}

// QueueOptions configure a queue at declaration time.
type QueueOptions struct {
	// Durable journals publishes and acks, so queue contents can be
	// recovered after a crash via Broker.Recover.
	Durable bool
	// Shards is the number of independently locked ready rings backing the
	// queue. 0 selects the default, min(GOMAXPROCS, 8); 1 restores the
	// strict single-lock FIFO queue. More shards let concurrent consumers
	// scale past the single-lock bottleneck at the cost of relaxing global
	// FIFO to per-producer FIFO under concurrency.
	Shards int
}

// Options configure a Broker.
type Options struct {
	// Journal, if non-nil, backs durable queues.
	Journal *journal.Journal
	// PerOpDelay, if non-nil, is invoked once per publish and once per
	// delivery — and once per *batch* operation on the batched fast path.
	// The workflow layer uses it to charge the host-performance cost of
	// traversing the messaging infrastructure (paper §IV-A).
	PerOpDelay func()
}

// Broker is an in-process, multi-queue message broker. It is safe for
// concurrent use by any number of producers and consumers.
type Broker struct {
	mu     sync.RWMutex // guards queues/closed; hot paths take read locks
	queues map[string]*queue
	nextID atomic.Uint64
	closed bool
	opts   Options
}

// New returns an empty broker.
func New(opts Options) *Broker {
	return &Broker{queues: make(map[string]*queue), opts: opts}
}

// DeclareQueue creates a queue. Declaring an existing name returns
// ErrQueueExists.
func (b *Broker) DeclareQueue(name string, opts QueueOptions) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if _, ok := b.queues[name]; ok {
		return ErrQueueExists
	}
	q := newQueue(b, name, opts)
	b.queues[name] = q
	return nil
}

// DeleteQueue removes a queue, cancelling its consumers.
func (b *Broker) DeleteQueue(name string) error {
	b.mu.Lock()
	q, ok := b.queues[name]
	if ok {
		delete(b.queues, name)
	}
	b.mu.Unlock()
	if !ok {
		return ErrNoQueue
	}
	q.close()
	return nil
}

// Queues returns the names of all declared queues.
func (b *Broker) Queues() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.queues))
	for n := range b.queues {
		names = append(names, n)
	}
	return names
}

func (b *Broker) lookup(name string) (*queue, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrClosed
	}
	q, ok := b.queues[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoQueue, name)
	}
	return q, nil
}

// Publish appends body to the named queue's next round-robin shard.
// Delivery order is FIFO per shard (global FIFO on a Shards: 1 queue); a
// publisher that needs its own messages delivered in order on a sharded
// queue should publish through a Producer handle instead.
func (b *Broker) Publish(queueName string, body []byte) error {
	q, err := b.lookup(queueName)
	if err != nil {
		return err
	}
	if b.opts.PerOpDelay != nil {
		b.opts.PerOpDelay()
	}
	return q.publish(Message{ID: b.nextID.Add(1), Body: body})
}

// PublishBatch appends bodies, in order, to one shard of the named queue
// under a single shard-lock acquisition and (for durable queues) a single
// journal record — the producer half of the batched fast path. Publishing
// an empty batch is a no-op. The batch occupies consecutive slots in its
// shard, so it is always drained in its internal order. Drain order
// ACROSS publish operations is per shard: on a Shards: 1 queue interleaved
// Publish and PublishBatch calls drain in publish-call order exactly as
// before; on a sharded queue (the default) successive stateless publish
// operations land on different shards and may be drained out of call
// order — use a Producer handle when per-publisher ordering matters.
func (b *Broker) PublishBatch(queueName string, bodies [][]byte) error {
	if len(bodies) == 0 {
		return nil
	}
	q, err := b.lookup(queueName)
	if err != nil {
		return err
	}
	if b.opts.PerOpDelay != nil {
		b.opts.PerOpDelay()
	}
	var few [fewMessages]Message
	return q.publishBatchTo(q.nextShard(), b.stamp(few[:0], bodies))
}

// fewMessages is how many messages a publish batch may carry and still be
// stamped in its caller's frame: a stage's tasks go out as one pending message
// per BatchSize tasks, so almost every batch is a handful.
const fewMessages = 4

// stamp gives each body its message ID, appending to few — a buffer on the
// caller's stack, which the queue copies from and does not keep — when the
// batch fits it.
func (b *Broker) stamp(few []Message, bodies [][]byte) []Message {
	msgs := few
	if len(bodies) > cap(few) {
		msgs = make([]Message, 0, len(bodies))
	}
	for _, body := range bodies {
		msgs = append(msgs, Message{ID: b.nextID.Add(1), Body: body})
	}
	return msgs
}

// Producer is a lightweight publisher handle pinned to one shard of a
// queue, assigned round-robin at creation. Everything published through the
// same Producer lands on that shard in call order, which is what makes
// per-producer FIFO hold on sharded queues: shards are FIFO, so any
// consumer receives this producer's messages in publish order however many
// consumers the queue has. Producers on different shards share no locks. A
// Producer is safe for concurrent use, though per-producer ordering is only
// meaningful for callers that publish sequentially.
type Producer struct {
	b  *Broker
	q  *queue
	sh *qshard
}

// Producer returns a publisher handle pinned to the named queue's next
// round-robin shard.
func (b *Broker) Producer(queueName string) (*Producer, error) {
	q, err := b.lookup(queueName)
	if err != nil {
		return nil, err
	}
	return &Producer{b: b, q: q, sh: q.nextShard()}, nil
}

// Publish appends body to this producer's shard.
func (p *Producer) Publish(body []byte) error {
	if p.b.opts.PerOpDelay != nil {
		p.b.opts.PerOpDelay()
	}
	return p.q.publishTo(p.sh, Message{ID: p.b.nextID.Add(1), Body: body})
}

// PublishBatch appends bodies, in order, to this producer's shard under a
// single shard-lock acquisition and (for durable queues) a single journal
// record.
func (p *Producer) PublishBatch(bodies [][]byte) error {
	if len(bodies) == 0 {
		return nil
	}
	if p.b.opts.PerOpDelay != nil {
		p.b.opts.PerOpDelay()
	}
	var few [fewMessages]Message
	return p.q.publishBatchTo(p.sh, p.b.stamp(few[:0], bodies))
}

// Get synchronously pops one ready message, returning ok=false when the
// queue is empty. The returned delivery must still be acked or nacked.
func (b *Broker) Get(queueName string) (*Delivery, bool, error) {
	q, err := b.lookup(queueName)
	if err != nil {
		return nil, false, err
	}
	d, ok := q.get()
	if ok && b.opts.PerOpDelay != nil {
		b.opts.PerOpDelay()
	}
	return d, ok, nil
}

// Consume registers a consumer on the named queue. prefetch bounds the
// number of unacked deliveries outstanding for this consumer (0 means 1).
func (b *Broker) Consume(queueName string, prefetch int) (*Consumer, error) {
	q, err := b.lookup(queueName)
	if err != nil {
		return nil, err
	}
	return q.consume(prefetch)
}

// ConsumeBatch registers a pull-mode consumer on the named queue: instead
// of a delivery channel, the caller pops messages with ReceiveBatch, which
// amortizes one queue-lock round-trip over a whole batch. prefetch bounds
// the unacked deliveries outstanding for this consumer (0 means 1) and
// therefore also caps the realized batch size.
func (b *Broker) ConsumeBatch(queueName string, prefetch int) (*Consumer, error) {
	q, err := b.lookup(queueName)
	if err != nil {
		return nil, err
	}
	return q.consumeBatch(prefetch)
}

// AckBatch acknowledges a set of deliveries, removing their messages
// permanently. Deliveries are grouped by queue and each queue settles under
// one lock acquisition and (when durable) one journal record. Deliveries
// that were already settled are skipped, so AckBatch composes with
// individual Ack/Nack calls. A nil or empty slice is a no-op.
func AckBatch(ds []*Delivery) error {
	return settleBatch(ds, false, false)
}

// NackBatch rejects a set of deliveries. With requeue, each queue's
// messages return to the front of that queue in batch order, flagged
// Redelivered — the batch analogue of Nack's requeue-at-front; without
// requeue they are dropped. Already-settled deliveries are skipped.
func NackBatch(ds []*Delivery, requeue bool) error {
	return settleBatch(ds, true, requeue)
}

// settleBatch groups deliveries by queue and settles each group. Claiming
// happens inside the per-queue settlement, under the shard locks, via the
// unacked-ledger membership bit — already-settled deliveries are skipped
// there, so the common single-queue batch needs no allocation here at all.
func settleBatch(ds []*Delivery, nack, requeue bool) error {
	if len(ds) == 0 {
		return nil
	}
	q0 := ds[0].q
	mixed := false
	for _, d := range ds[1:] {
		if d.q != q0 {
			mixed = true
			break
		}
	}
	if !mixed {
		return q0.settleBatch(ds, nack, requeue)
	}
	byQueue := make(map[*queue][]*Delivery)
	for _, d := range ds {
		byQueue[d.q] = append(byQueue[d.q], d)
	}
	var firstErr error
	for q, group := range byQueue {
		if err := q.settleBatch(group, nack, requeue); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Purge drops all ready messages from the queue, returning how many were
// removed.
func (b *Broker) Purge(queueName string) (int, error) {
	q, err := b.lookup(queueName)
	if err != nil {
		return 0, err
	}
	return q.purge(), nil
}

// Stats returns a snapshot of the named queue's counters.
func (b *Broker) Stats(queueName string) (QueueStats, error) {
	q, err := b.lookup(queueName)
	if err != nil {
		return QueueStats{}, err
	}
	return q.stats(), nil
}

// TotalStats aggregates statistics across all queues.
func (b *Broker) TotalStats() QueueStats {
	b.mu.Lock()
	qs := make([]*queue, 0, len(b.queues))
	for _, q := range b.queues {
		qs = append(qs, q)
	}
	b.mu.Unlock()
	var tot QueueStats
	tot.Name = "*"
	for _, q := range qs {
		s := q.stats()
		tot.Depth += s.Depth
		tot.Unacked += s.Unacked
		tot.PeakDepth += s.PeakDepth
		tot.Published += s.Published
		tot.Delivered += s.Delivered
		tot.Acked += s.Acked
		tot.Nacked += s.Nacked
		tot.Bytes += s.Bytes
		tot.PeakBytes += s.PeakBytes
		tot.Shards += s.Shards
		tot.Steals += s.Steals
		tot.PublishBatches += s.PublishBatches
		tot.DeliverBatches += s.DeliverBatches
		tot.AckBatches += s.AckBatches
		tot.NackBatches += s.NackBatches
	}
	return tot
}

// Close shuts the broker down, cancelling all consumers. Outstanding
// deliveries are dropped.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	qs := make([]*queue, 0, len(b.queues))
	for _, q := range b.queues {
		qs = append(qs, q)
	}
	b.mu.Unlock()
	for _, q := range qs {
		q.close()
	}
}

// Journal record types used for durable queues. Batched operations write
// one batch record instead of N single records; Recover understands both.
// Record payloads are msgcodec broker-durability frames.
const (
	recPublish      = "broker.publish"
	recAck          = "broker.ack"
	recPublishBatch = "broker.publish.batch"
	recAckBatch     = "broker.ack.batch"
)

// Recover rebuilds durable queue contents from the journal at path. Queues
// must be declared (durable) before calling Recover. Messages that were
// published but never acked are restored as Redelivered.
func (b *Broker) Recover(path string) error {
	pending := map[string]map[uint64][]byte{} // queue -> id -> body
	order := map[string][]uint64{}
	err := journal.Replay(path, func(rec journal.Record) error {
		switch rec.Type {
		case recPublish:
			p, err := msgcodec.DecodeBrokerPublish(rec.Data)
			if err != nil {
				return err
			}
			if pending[p.Queue] == nil {
				pending[p.Queue] = map[uint64][]byte{}
			}
			pending[p.Queue][p.ID] = bytes.Clone(p.Body) // rec.Data is borrowed
			order[p.Queue] = append(order[p.Queue], p.ID)
		case recPublishBatch:
			p, err := msgcodec.DecodeBrokerPublishBatch(rec.Data)
			if err != nil {
				return err
			}
			if pending[p.Queue] == nil {
				pending[p.Queue] = map[uint64][]byte{}
			}
			for _, m := range p.Msgs {
				pending[p.Queue][m.ID] = bytes.Clone(m.Body)
				order[p.Queue] = append(order[p.Queue], m.ID)
			}
		case recAck:
			a, err := msgcodec.DecodeBrokerAck(rec.Data)
			if err != nil {
				return err
			}
			if m := pending[a.Queue]; m != nil {
				delete(m, a.ID)
			}
		case recAckBatch:
			a, err := msgcodec.DecodeBrokerAckBatch(rec.Data)
			if err != nil {
				return err
			}
			if m := pending[a.Queue]; m != nil {
				for _, id := range a.IDs {
					delete(m, id)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for qname, ids := range order {
		q, err := b.lookup(qname)
		if err != nil {
			continue // queue not re-declared: skip, like RabbitMQ's auto-delete
		}
		for _, id := range ids {
			body, ok := pending[qname][id]
			if !ok {
				continue
			}
			if err := q.restore(Message{ID: b.nextID.Add(1), Body: body, Redelivered: true}); err != nil {
				return err
			}
		}
	}
	return nil
}
