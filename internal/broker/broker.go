// Package broker implements the in-process message broker that substitutes
// RabbitMQ in this reproduction (paper §II-C).
//
// EnTK relies on the broker for three properties the paper calls out
// explicitly: (1) producers and consumers are topology-unaware and interact
// only with the broker; (2) messages survive component failures; and (3)
// production and consumption are asynchronous because the broker buffers.
// This package reproduces (1) and (3) with named queues, per-consumer
// prefetch, ack/nack with requeue, and per-queue statistics used by the Fig 6
// prototype benchmark. Property (2) is delivered one layer up: with a
// JournalDir the workflow engine commits every transition to its journal and
// state database, and Resume rebuilds the queues from that committed state
// (docs/recovery.md). The broker itself keeps nothing on disk.
//
// # Bodies and values
//
// A message carries either bytes (Body) or a Go value (Value). Every queue
// lives inside one process, so the workflow engine hands its components
// values — a chunk of tasks, a drain of results, a transition frame and its
// ack — and nothing on its task path is encoded or decoded. Bytes remain for
// callers that price the encoded form (the Fig 6 prototype). The broker
// counts messages, never payload sizes: a value has none it could know.
//
// # One path for singles and batches
//
// Publish, pop and settle each have one implementation, and it takes a
// batch: the per-message API (Publish, PublishValue, Producer.PublishValue,
// Get, Delivery.Ack/Nack) hands it a batch of one. A batch costs one
// shard-lock round-trip however many messages it carries: PublishBatch and
// Producer.PublishValues append N messages, ConsumeBatch registers a
// pull-mode consumer whose ReceiveBatch pops up to N ready messages, and
// AckBatch and NackBatch settle N deliveries per queue. This is the
// substrate for EnTK's bulk messages, which keep queue traffic O(stages)
// rather than O(tasks) (paper §II-C, Fig 6).
//
// Singles and batches interleave freely on one queue. A publish occupies
// consecutive FIFO slots of one shard in publish-call order, delivery drains
// each shard's head in FIFO order, and a requeuing Nack or NackBatch returns
// its deliveries to the front of the shards they came from, in their
// per-shard order. On a Shards: 1 queue these are
// the strict global guarantees of a single-lock queue — see the sharding
// section below for what relaxes when Shards > 1. Options.PerOpDelay is
// charged once per operation whatever its size — once per publish call, once
// per Get that pops, once per ReceiveBatch and once per push-mode delivery —
// so batching amortizes the modelled broker traversal the same way it
// amortizes the real lock. The batch counters of QueueStats count the batch
// API alone.
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
// per-shard order), and settlement stays exactly-once via the per-shard
// unacked ledgers.
package broker

import (
	"errors"
	"fmt"
	"sync"
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
	// Body is the opaque payload of a message published as bytes.
	Body []byte
	// Value is the payload of a message published as a value. The broker
	// hands it over as it was given: producer and consumer share it, in one
	// process, and agree between them on its type and on who may touch it
	// when. A pointer boxes into it without allocating.
	Value any
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
	return d.settle(false, false)
}

// Nack rejects the delivery. With requeue, the message returns to the front
// of the queue; otherwise it is dropped.
func (d *Delivery) Nack(requeue bool) error {
	return d.settle(true, requeue)
}

// settle settles d as a batch of one; settling nothing means an earlier
// settlement claimed it.
func (d *Delivery) settle(nack, requeue bool) error {
	if d.q.settleBatch([]*Delivery{d}, nack, requeue, false) == 0 {
		return ErrAlreadyAcked
	}
	return nil
}

// QueueStats is a snapshot of one queue's counters.
type QueueStats struct {
	Depth   int // messages ready for delivery
	Unacked int // delivered but not yet acked
	// PeakDepth is the sum of each shard's high-water mark. For sequential
	// workloads (and on Shards: 1 queues) that is exactly the maximum
	// observed; under concurrency shards can peak at different moments, so
	// the sum is an upper bound on the true global peak.
	PeakDepth int
	Published uint64 // total messages published
	Delivered uint64 // total deliveries (including redeliveries)
	Acked     uint64
	Nacked    uint64

	// Shard observability: the resolved shard count, and how many pops a
	// consumer served from a shard other than its preferred one
	// (work-stealing).
	Shards int
	Steals uint64

	// Batch-API counters: one increment per batch-API call (not per
	// message). Single-message calls, batches of one inside the broker, are
	// not counted.
	PublishBatches uint64 // PublishBatch and Producer.PublishValues calls
	DeliverBatches uint64 // ReceiveBatch calls that delivered messages
	AckBatches     uint64 // AckBatch settlements applied to this queue
	NackBatches    uint64 // NackBatch settlements applied to this queue
}

// QueueOptions configure a queue at declaration time.
type QueueOptions struct {
	// Shards is the number of independently locked ready rings backing the
	// queue. 0 selects the default, min(GOMAXPROCS, 8); 1 restores the
	// strict single-lock FIFO queue. More shards let concurrent consumers
	// scale past the single-lock bottleneck at the cost of relaxing global
	// FIFO to per-producer FIFO under concurrency.
	Shards int
}

// Options configure a Broker.
type Options struct {
	// PerOpDelay, if non-nil, is invoked once per publish operation and once
	// per pop (a Get, a ReceiveBatch, a push-mode delivery), whatever the
	// operation's size.
	// The workflow layer uses it to charge the host-performance cost of
	// traversing the messaging infrastructure (paper §IV-A).
	PerOpDelay func()
}

// Broker is an in-process, multi-queue message broker. It is safe for
// concurrent use by any number of producers and consumers.
type Broker struct {
	mu     sync.RWMutex // guards queues/closed; hot paths take read locks
	queues map[string]*queue
	closed bool
	opts   Options
}

// queuesHint sizes a broker's queue table for the nine queues of a run's
// topology (paper Fig 2): every run makes a broker, and declaring them then
// grows nothing.
const queuesHint = 9

// New returns an empty broker.
func New(opts Options) *Broker {
	return &Broker{queues: make(map[string]*queue, queuesHint), opts: opts}
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
	q := newQueue(b, opts)
	b.queues[name] = q
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
	return b.sendBatch(q, q.nextShard(), [][]byte{body}, nil, false)
}

// PublishValue is Publish for a message that carries v instead of a body.
func (b *Broker) PublishValue(queueName string, v any) error {
	q, err := b.lookup(queueName)
	if err != nil {
		return err
	}
	return b.sendBatch(q, q.nextShard(), nil, []any{v}, false)
}

// PublishBatch appends bodies, in order, to one shard of the named queue
// under a single shard-lock acquisition. Publishing an empty batch is a
// no-op. The batch occupies consecutive slots in its shard, so it is always
// drained in its internal order. Drain order across publish operations is
// per shard: on a Shards: 1 queue interleaved Publish and PublishBatch calls
// drain in publish-call order; on a sharded queue (the default) successive
// stateless publish operations land on different shards and may be drained
// out of call order — use a Producer handle when per-publisher ordering
// matters.
func (b *Broker) PublishBatch(queueName string, bodies [][]byte) error {
	if len(bodies) == 0 {
		return nil
	}
	q, err := b.lookup(queueName)
	if err != nil {
		return err
	}
	return b.sendBatch(q, q.nextShard(), bodies, nil, true)
}

// sendBatch is the one path every publish takes, of bodies or of values,
// whichever is given: one modelled traversal, then the messages stamped and
// appended to sh. batch marks a call of the batch API, the only kind that
// PublishBatches counts; a single publish is a batch of one.
func (b *Broker) sendBatch(q *queue, sh *qshard, bodies [][]byte, values []any, batch bool) error {
	if b.opts.PerOpDelay != nil {
		b.opts.PerOpDelay()
	}
	var few [fewMessages]Message
	return q.publishBatchTo(sh, b.stamp(few[:0], bodies, values), batch)
}

// fewMessages is how many messages a publish batch may carry and still be
// stamped in its caller's frame: a stage's tasks go out as one pending message
// per BatchSize tasks, so almost every batch is a handful.
const fewMessages = 4

// stamp makes a message of each body or each value, with its message ID,
// appending to few — a buffer on the caller's stack, which the queue copies
// from and does not keep — when the batch fits it.
func (b *Broker) stamp(few []Message, bodies [][]byte, values []any) []Message {
	n := max(len(bodies), len(values))
	msgs := few
	if n > cap(few) {
		msgs = make([]Message, 0, n)
	}
	for i := 0; i < n; i++ {
		if bodies != nil {
			msgs = append(msgs, Message{Body: bodies[i]})
		} else {
			msgs = append(msgs, Message{Value: values[i]})
		}
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

// PublishValue appends a message carrying v to this producer's shard.
func (p *Producer) PublishValue(v any) error {
	return p.b.sendBatch(p.q, p.sh, nil, []any{v}, false)
}

// PublishValues appends a message for each of values, in order, to this
// producer's shard under a single shard-lock acquisition. An empty batch is
// a no-op.
func (p *Producer) PublishValues(values []any) error {
	if len(values) == 0 {
		return nil
	}
	return p.b.sendBatch(p.q, p.sh, nil, values, true)
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
// one lock acquisition per touched shard. Deliveries that were already
// settled are skipped, so AckBatch composes with individual Ack/Nack calls.
// A nil or empty slice is a no-op. A batch settlement cannot fail: the error
// is always nil.
func AckBatch(ds []*Delivery) error {
	settleBatch(ds, false, false)
	return nil
}

// NackBatch rejects a set of deliveries. With requeue, each queue's
// messages return to the front of that queue in batch order — the batch
// analogue of Nack's requeue-at-front; without
// requeue they are dropped. Already-settled deliveries are skipped. The
// error is always nil.
func NackBatch(ds []*Delivery, requeue bool) error {
	settleBatch(ds, true, requeue)
	return nil
}

// settleBatch groups deliveries by queue and settles each group. Claiming
// happens inside the per-queue settlement, under the shard locks, via the
// unacked-ledger membership bit — already-settled deliveries are skipped
// there, so the common single-queue batch needs no allocation here at all.
func settleBatch(ds []*Delivery, nack, requeue bool) {
	if len(ds) == 0 {
		return
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
		q0.settleBatch(ds, nack, requeue, true)
		return
	}
	byQueue := make(map[*queue][]*Delivery)
	for _, d := range ds {
		byQueue[d.q] = append(byQueue[d.q], d)
	}
	for q, group := range byQueue {
		q.settleBatch(group, nack, requeue, true)
	}
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
	for _, q := range qs {
		s := q.stats()
		tot.Depth += s.Depth
		tot.Unacked += s.Unacked
		tot.PeakDepth += s.PeakDepth
		tot.Published += s.Published
		tot.Delivered += s.Delivered
		tot.Acked += s.Acked
		tot.Nacked += s.Nacked
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
	b.mu.Unlock()
	// Nothing changes queues once closed is set, so it is walked unlocked.
	for _, q := range b.queues {
		q.close()
	}
}
