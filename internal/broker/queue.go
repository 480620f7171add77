package broker

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// msgDeque is a slice-backed ring buffer of ready messages. Compared to a
// linked list it allocates nothing per message on the steady state, and a
// whole batch appends with one capacity check.
type msgDeque struct {
	buf  []Message
	head int
	n    int
}

func (d *msgDeque) Len() int { return d.n }

func (d *msgDeque) grow(min int) {
	newCap := 2 * len(d.buf)
	if newCap < d.n+min {
		newCap = d.n + min
	}
	if newCap < 16 {
		newCap = 16
	}
	buf := make([]Message, newCap)
	if d.n > 0 {
		end := d.head + d.n
		if end <= len(d.buf) {
			copy(buf, d.buf[d.head:end])
		} else {
			k := copy(buf, d.buf[d.head:])
			copy(buf[k:], d.buf[:end-len(d.buf)])
		}
	}
	d.buf = buf
	d.head = 0
}

// PushBackAll appends msgs in order with at most one grow.
func (d *msgDeque) PushBackAll(msgs []Message) {
	if d.n+len(msgs) > len(d.buf) {
		d.grow(len(msgs))
	}
	for _, m := range msgs {
		d.buf[(d.head+d.n)%len(d.buf)] = m
		d.n++
	}
}

func (d *msgDeque) PushFront(m Message) {
	if d.n == len(d.buf) {
		d.grow(1)
	}
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = m
	d.n++
}

func (d *msgDeque) PopFront() Message {
	m := d.buf[d.head]
	d.buf[d.head] = Message{} // drop the payload references for the GC
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return m
}

// DefaultShards is the ready-ring shard count used when
// QueueOptions.Shards is zero: one shard per schedulable CPU, capped at 8
// — past that the scan cost grows faster than contention shrinks. The RTS
// task store shares this policy.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// qshard is one independently locked slice of a queue's ready storage: a
// ring-deque of ready messages, the unacked ledger for messages delivered
// from this shard, and the shard's share of the queue counters. Everything
// a publish, pop or settle touches lives behind this one mutex, so traffic
// on different shards shares no locks. A queue's shards are one block (one
// allocation per queue, and most queues have one shard); the struct is
// padded to a whole number of cache lines so that neighbours in the block
// share none.
type qshard struct {
	idx int

	mu sync.Mutex
	// ready holds undelivered messages; unacked is an intrusive doubly
	// linked ledger of delivered-but-unsettled deliveries. The ledger makes
	// registering and settling a delivery two pointer writes under the
	// shard lock — no hash-map operations on the per-message hot path.
	ready    msgDeque
	unacked  *Delivery
	unackedN int

	// depth mirrors ready.Len() so consumers can skip empty shards and
	// emptiness checks can run without taking any lock. Written only under
	// mu; reads are lock-free.
	depth atomic.Int64

	// Counters are mutated under mu (already held on every path that
	// changes them) and aggregated across shards by stats().
	published uint64
	delivered uint64
	acked     uint64
	nacked    uint64
	peakDepth int

	_ [8]byte // 120 bytes of fields -> 128: two cache lines
}

// syncDepthLocked refreshes the lock-free depth mirror; mu must be held.
func (s *qshard) syncDepthLocked() {
	s.depth.Store(int64(s.ready.Len()))
}

// trackPeakLocked records this shard's high-water mark; mu must be held.
func (s *qshard) trackPeakLocked() {
	if d := s.ready.Len(); d > s.peakDepth {
		s.peakDepth = d
	}
}

// ledgerAddLocked registers a delivery as unacked; mu must be held.
func (s *qshard) ledgerAddLocked(d *Delivery) {
	d.listed = true
	d.prev = nil
	d.next = s.unacked
	if s.unacked != nil {
		s.unacked.prev = d
	}
	s.unacked = d
	s.unackedN++
}

// ledgerRemoveLocked unregisters a delivery, reporting whether it was still
// listed (false = already settled or swept by a cancel); mu must be held.
func (s *qshard) ledgerRemoveLocked(d *Delivery) bool {
	if !d.listed {
		return false
	}
	d.listed = false
	if d.prev != nil {
		d.prev.next = d.next
	} else {
		s.unacked = d.next
	}
	if d.next != nil {
		d.next.prev = d.prev
	}
	d.prev, d.next = nil, nil
	s.unackedN--
	return true
}

// queue is a single named message queue whose ready storage is sharded into
// independently locked ring-deques (QueueOptions.Shards, default
// min(GOMAXPROCS, 8)). Publish operations land on shards round-robin — a
// batch stays contiguous in one shard, and a Producer handle pins all its
// publishes to one shard. Consumers pop from a preferred shard assigned
// round-robin at registration and steal from the next non-empty shard when
// theirs is empty, so concurrent consumers fan out across shard locks
// instead of serializing on one mutex. Delivery order is FIFO per shard:
// with one shard that is the strict global FIFO of the original single-lock
// queue, with more it is per-producer FIFO for Producer-pinned publishers.
// Nacked messages requeue at the front of the shard they were delivered
// from, matching RabbitMQ's basic.reject semantics per shard.
type queue struct {
	b      *Broker
	name   string
	shards []qshard // one block; handed out as &shards[i]

	// Every unpinned publish writes pubCursor, and every pop reads the fields
	// above. The pad starts the cursors on the struct's second 64-byte line:
	// sharing the first cost the pipelined push-mode benchmark
	// (BenchmarkBrokerSingleMsg64) a tenth more, smaller pops.
	_         [16]byte
	pubCursor atomic.Uint64 // round-robin publish-op shard assignment
	getCursor atomic.Uint64 // rotating scan origin for Broker.Get
	conCursor atomic.Uint64 // round-robin consumer preferred shards

	// Blocked consumers park on two conditions sharing one mutex:
	// emptyCond for "no ready messages", windowCond for "prefetch window
	// exhausted". Waiter counts gate the wakeups so the uncontended hot
	// path never touches notifyMu.
	notifyMu      sync.Mutex
	emptyCond     sync.Cond // on notifyMu
	windowCond    sync.Cond // on notifyMu
	emptyWaiters  atomic.Int64
	windowWaiters atomic.Int64

	mu        sync.Mutex  // cold path: consumer registry
	consumers []*Consumer // a handful at most; nil until the first registers
	closed    atomic.Bool

	steals atomic.Uint64 // pops served from a non-preferred shard

	// batch-API counters: one increment per batch-API call, however many
	// messages it carried.
	publishBatches atomic.Uint64
	deliverBatches atomic.Uint64
	ackBatches     atomic.Uint64
	nackBatches    atomic.Uint64
}

func newQueue(b *Broker, name string, opts QueueOptions) *queue {
	n := opts.Shards
	if n == 0 {
		n = DefaultShards()
	}
	if n < 1 {
		n = 1
	}
	// Two allocations: the queue and its shard block. A hosted run declares
	// nine queues and deletes them again within milliseconds.
	q := &queue{b: b, name: name, shards: make([]qshard, n)}
	for i := range q.shards {
		q.shards[i].idx = i
	}
	q.emptyCond.L = &q.notifyMu
	q.windowCond.L = &q.notifyMu
	return q
}

// nextShard picks the shard for one unpinned publish operation: round-robin,
// so stateless producers spread across shard locks while a batch stays
// contiguous in one shard.
func (q *queue) nextShard() *qshard {
	return &q.shards[int((q.pubCursor.Add(1)-1)%uint64(len(q.shards)))]
}

// totalReady sums the lock-free shard depth mirrors.
func (q *queue) totalReady() int64 {
	var t int64
	for i := range q.shards {
		t += q.shards[i].depth.Load()
	}
	return t
}

// ---- consumer wakeups ---------------------------------------------------

// waitNotEmpty parks until a ready message appears, the queue closes, or
// the consumer stops. The waiter count is raised before the final recheck
// so a concurrent publisher either sees the waiter or the waiter sees the
// message — never neither.
func (q *queue) waitNotEmpty(c *Consumer) {
	q.notifyMu.Lock()
	q.emptyWaiters.Add(1)
	for q.totalReady() == 0 && !q.closed.Load() && !(c != nil && c.isStopped()) {
		q.emptyCond.Wait()
	}
	q.emptyWaiters.Add(-1)
	q.notifyMu.Unlock()
}

// waitWindow parks until the consumer's prefetch window reopens.
func (q *queue) waitWindow(c *Consumer) {
	q.notifyMu.Lock()
	q.windowWaiters.Add(1)
	for int64(c.prefetch)-c.inflight.Load() <= 0 && !q.closed.Load() && !c.isStopped() {
		q.windowCond.Wait()
	}
	q.windowWaiters.Add(-1)
	q.notifyMu.Unlock()
}

// wakeNotEmpty wakes one (or, after a batch, all) consumers parked on an
// empty queue. The atomic waiter check keeps publishes lock-free when no
// one is parked — the common case under load.
func (q *queue) wakeNotEmpty(all bool) {
	if q.emptyWaiters.Load() == 0 {
		return
	}
	q.notifyMu.Lock()
	if all {
		q.emptyCond.Broadcast()
	} else {
		q.emptyCond.Signal()
	}
	q.notifyMu.Unlock()
}

// wakeWindow wakes consumers parked on an exhausted prefetch window.
func (q *queue) wakeWindow() {
	if q.windowWaiters.Load() == 0 {
		return
	}
	q.notifyMu.Lock()
	q.windowCond.Broadcast()
	q.notifyMu.Unlock()
}

// wakeAll unparks every blocked consumer (close, cancel).
func (q *queue) wakeAll() {
	q.notifyMu.Lock()
	q.emptyCond.Broadcast()
	q.windowCond.Broadcast()
	q.notifyMu.Unlock()
}

// ---- publish ------------------------------------------------------------

// publishBatchTo appends msgs in order to sh under a single shard-lock
// acquisition. The batch occupies one shard contiguously, so its internal
// order survives segment pops. The closed check runs under the shard lock
// and close() fences every shard lock after setting the flag, so no publish
// can succeed after Close returns. One message wakes one parked consumer, a
// larger batch all of them.
func (q *queue) publishBatchTo(sh *qshard, msgs []Message, batch bool) error {
	sh.mu.Lock()
	if q.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	sh.ready.PushBackAll(msgs)
	sh.published += uint64(len(msgs))
	sh.trackPeakLocked()
	sh.syncDepthLocked()
	sh.mu.Unlock()
	if batch {
		q.publishBatches.Add(1)
	}
	q.wakeNotEmpty(len(msgs) > 1)
	return nil
}

// ---- pop ----------------------------------------------------------------

// popBatch pops up to max ready messages for c (nil for a Get), draining
// whole shard segments: shard start first, then the next non-empty shards in
// rotation. Each segment comes off one shard under one lock acquisition and
// preserves that shard's FIFO order (a whole publish batch in the common
// case). A consumer starts at its preferred shard, and a segment from any
// other is a steal. May return fewer than max — or none — when concurrent
// consumers drain the queue first. The batch is two allocations, its
// deliveries and the slice of pointers to them; a batch of one — every Get,
// and every sync frame and ack — is a single allocation holding both.
func (q *queue) popBatch(c *Consumer, start, max int) []*Delivery {
	avail := int(q.totalReady())
	if avail <= 0 {
		return nil
	}
	if avail > max {
		avail = max
	}
	n := len(q.shards)
	var block []Delivery
	var batch []*Delivery
	if avail == 1 {
		one := new(struct {
			d [1]Delivery
			p [1]*Delivery
		})
		block, batch = one.d[:], one.p[:0]
	} else {
		block = make([]Delivery, avail)
		batch = make([]*Delivery, 0, avail)
	}
	for i := 0; i < n && len(batch) < avail; i++ {
		sh := &q.shards[(start+i)%n]
		if sh.depth.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		took := 0
		for sh.ready.Len() > 0 && len(batch) < avail {
			m := sh.ready.PopFront()
			k := len(batch)
			block[k] = Delivery{Message: m, q: q, sh: sh, c: c}
			sh.ledgerAddLocked(&block[k])
			batch = append(batch, &block[k])
			took++
		}
		sh.delivered += uint64(took)
		sh.syncDepthLocked()
		sh.mu.Unlock()
		if took > 0 && c != nil && sh.idx != c.pref {
			q.steals.Add(1)
		}
	}
	return batch
}

// get pops one ready message synchronously, rotating its scan origin across
// calls so repeated Gets spread over shard locks.
func (q *queue) get() (*Delivery, bool) {
	if q.closed.Load() {
		return nil, false
	}
	start := int((q.getCursor.Add(1) - 1) % uint64(len(q.shards)))
	if ds := q.popBatch(nil, start, 1); len(ds) == 1 {
		return ds[0], true
	}
	return nil, false
}

// ---- settlement ---------------------------------------------------------

// settleBatch completes a set of deliveries from this queue with one lock
// acquisition per touched shard — ack, drop, or requeue at the front of the
// shard each was delivered from — and returns how many it settled. The
// unacked ledger is the claim: deliveries settled by an earlier call — or by
// a concurrent one — are skipped. A requeue preserves the batch's internal
// order per shard, so a requeued batch is redelivered exactly as it was
// first delivered. batch marks a call of the batch API, the only kind that
// AckBatches and NackBatches count; Ack and Nack settle a batch of one.
func (q *queue) settleBatch(ds []*Delivery, nack, requeue, batch bool) int {
	if len(ds) == 0 {
		return 0
	}
	// Consumer releases are counted without a map in the overwhelmingly
	// common case of one consumer per batch; a map is built only when the
	// batch actually spans consumers.
	var relC *Consumer
	relN := 0
	var relExtra map[*Consumer]int
	settled, requeued := 0, 0
	settleShard := func(sh *qshard, group []*Delivery) {
		sh.mu.Lock()
		for i := len(group) - 1; i >= 0; i-- {
			d := group[i]
			if !sh.ledgerRemoveLocked(d) {
				continue // already settled, or raced with a cancellation
			}
			settled++
			switch {
			case !nack:
				sh.acked++
			case requeue:
				sh.nacked++
				m := d.Message
				m.Redelivered = true
				// Reverse iteration + PushFront keeps the group's order
				// intact at the head of its shard.
				sh.ready.PushFront(m)
				requeued++
			default:
				sh.nacked++
			}
			switch {
			case d.c == nil:
			case relC == nil || relC == d.c:
				relC = d.c
				relN++
			default:
				if relExtra == nil {
					relExtra = make(map[*Consumer]int)
				}
				relExtra[d.c]++
			}
		}
		if requeued > 0 { // only a requeue changes what is ready
			sh.trackPeakLocked()
			sh.syncDepthLocked()
		}
		sh.mu.Unlock()
	}
	// The common case — every delivery from one shard — settles without any
	// grouping allocation.
	single := true
	for _, d := range ds[1:] {
		if d.sh != ds[0].sh {
			single = false
			break
		}
	}
	if single {
		settleShard(ds[0].sh, ds)
	} else {
		byShard := make(map[*qshard][]*Delivery)
		var order []*qshard
		for _, d := range ds {
			if byShard[d.sh] == nil {
				order = append(order, d.sh)
			}
			byShard[d.sh] = append(byShard[d.sh], d)
		}
		for _, sh := range order {
			settleShard(sh, byShard[sh])
		}
	}
	if settled > 0 && batch {
		if !nack {
			q.ackBatches.Add(1)
		} else {
			q.nackBatches.Add(1)
		}
	}
	if requeued > 0 {
		q.wakeNotEmpty(requeued > 1)
	}
	if relC != nil {
		relC.releaseN(relN)
	}
	if relExtra != nil { // only when the batch spans consumers: saves a map iterator
		for c, n := range relExtra {
			c.releaseN(n)
		}
	}
	return settled
}

// ---- maintenance --------------------------------------------------------

func (q *queue) stats() QueueStats {
	s := QueueStats{
		Name:           q.name,
		Shards:         len(q.shards),
		ShardDepths:    make([]int, len(q.shards)),
		Steals:         q.steals.Load(),
		PublishBatches: q.publishBatches.Load(),
		DeliverBatches: q.deliverBatches.Load(),
		AckBatches:     q.ackBatches.Load(),
		NackBatches:    q.nackBatches.Load(),
	}
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		s.ShardDepths[i] = sh.ready.Len()
		s.Depth += sh.ready.Len()
		s.Unacked += sh.unackedN
		s.Published += sh.published
		s.Delivered += sh.delivered
		s.Acked += sh.acked
		s.Nacked += sh.nacked
		// Peaks are tracked per shard; their sum bounds (and for sequential
		// workloads equals) the true global high-water mark.
		s.PeakDepth += sh.peakDepth
		sh.mu.Unlock()
	}
	return s
}

func (q *queue) close() {
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		return
	}
	q.closed.Store(true)
	consumers := q.consumers // Cancel unregisters by building a new slice
	q.mu.Unlock()
	// Fence every shard lock: a publish that passed the closed check holds
	// its shard lock, so once this sweep completes no in-flight publish
	// can still append — Close has the same publish/close mutual exclusion
	// the single-lock queue had.
	for i := range q.shards {
		q.shards[i].mu.Lock()
		q.shards[i].mu.Unlock() //nolint:staticcheck // empty critical section is the fence
	}
	q.wakeAll()
	for _, c := range consumers {
		c.Cancel()
	}
}

// ---- consumers ----------------------------------------------------------

// Consumer receives deliveries from one queue. Push-mode consumers
// (Broker.Consume) receive on the Deliveries channel; pull-mode consumers
// (Broker.ConsumeBatch) call ReceiveBatch instead and have no channel. Each
// consumer is assigned a preferred shard round-robin at registration; pops
// served from any other shard are work-stealing and show up in the queue's
// Steals statistic.
type Consumer struct {
	q        *queue
	prefetch int
	pref     int // preferred shard (scan origin; elsewhere = steal)
	ch       chan *Delivery
	pull     bool // pull mode: no loop goroutine, ReceiveBatch pops directly

	inflight atomic.Int64   // outstanding unacked deliveries
	popWG    sync.WaitGroup // in-flight pops (Cancel barrier)

	mu      sync.Mutex
	stopped bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

func (q *queue) consume(prefetch int) (*Consumer, error) {
	if prefetch <= 0 {
		prefetch = 1
	}
	c := &Consumer{
		q:        q,
		prefetch: prefetch,
		ch:       make(chan *Delivery, prefetch),
		stopCh:   make(chan struct{}),
	}
	if err := q.register(c); err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// consumeBatch registers a pull-mode consumer: no delivery goroutine or
// channel; the caller pops messages with ReceiveBatch.
func (q *queue) consumeBatch(prefetch int) (*Consumer, error) {
	if prefetch <= 0 {
		prefetch = 1
	}
	c := &Consumer{
		q:        q,
		prefetch: prefetch,
		pull:     true,
		stopCh:   make(chan struct{}),
	}
	if err := q.register(c); err != nil {
		return nil, err
	}
	return c, nil
}

// register enters c in the queue's consumer registry and assigns its
// preferred shard. A queue that close has already swept (deleted, or its
// broker closed) takes no more consumers: one registered now would never be
// cancelled.
func (q *queue) register(c *Consumer) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed.Load() {
		return ErrClosed
	}
	c.pref = int((q.conCursor.Add(1) - 1) % uint64(len(q.shards)))
	q.consumers = append(q.consumers, c)
	return nil
}

// unregister removes c from the registry. It builds a new slice, never
// edits the old one: close walks the slice it read without the lock.
func (q *queue) unregister(c *Consumer) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, o := range q.consumers {
		if o == c {
			kept := make([]*Consumer, 0, len(q.consumers)-1)
			kept = append(kept, q.consumers[:i]...)
			q.consumers = append(kept, q.consumers[i+1:]...)
			return
		}
	}
}

// Deliveries is the channel on which a push-mode consumer receives messages.
// It is closed when the consumer is cancelled or the queue/broker closes.
// Pull-mode consumers (Broker.ConsumeBatch) have no channel; Deliveries
// returns nil for them.
func (c *Consumer) Deliveries() <-chan *Delivery { return c.ch }

// reserve claims up to want slots of the prefetch window, returning how
// many were granted (0 when the window is exhausted).
func (c *Consumer) reserve(want int) int {
	for {
		cur := c.inflight.Load()
		free := int64(c.prefetch) - cur
		if free <= 0 {
			return 0
		}
		n := int64(want)
		if n > free {
			n = free
		}
		if c.inflight.CompareAndSwap(cur, cur+n) {
			return int(n)
		}
	}
}

// releaseN returns n prefetch slots and wakes window-blocked consumers.
func (c *Consumer) releaseN(n int) {
	if n <= 0 {
		return
	}
	c.inflight.Add(-int64(n))
	c.q.wakeWindow()
}

// ReceiveBatch blocks until at least one message is ready, then pops up to
// max messages, draining whole shard segments — the preferred shard first,
// stealing from the next non-empty shards when it runs dry — with one
// shard-lock acquisition per segment. The batch size is additionally bounded
// by the consumer's free prefetch window. It returns ErrClosed once the consumer is cancelled or
// the queue/broker closes; every returned delivery must still be settled
// (individually or via AckBatch/NackBatch).
//
// ReceiveBatch is only valid on pull-mode consumers from Broker.ConsumeBatch.
func (c *Consumer) ReceiveBatch(max int) ([]*Delivery, error) {
	if !c.pull {
		return nil, errPushConsumer
	}
	if max <= 0 {
		max = 1
	}
	batch, err := c.next(max)
	if err != nil {
		return nil, err
	}
	c.q.deliverBatches.Add(1)
	// One modelled broker traversal per batch: the amortization the
	// workflow layer's bulk messages are built on.
	if c.q.b.opts.PerOpDelay != nil {
		c.q.b.opts.PerOpDelay()
	}
	return batch, nil
}

// next is the pop step both consumer modes share: it waits until a message
// is ready and the prefetch window has room, reserves up to max slots of the
// window, pops that many messages and returns the slots it could not fill.
// It returns ErrClosed once the consumer is cancelled or the queue closes.
func (c *Consumer) next(max int) ([]*Delivery, error) {
	q := c.q
	for {
		if q.closed.Load() || c.isStopped() {
			return nil, ErrClosed
		}
		if q.totalReady() == 0 {
			q.waitNotEmpty(c)
			continue
		}
		n := c.reserve(max)
		if n == 0 {
			q.waitWindow(c)
			continue
		}
		// popWG lets Cancel wait out in-flight pops before it sweeps the
		// unacked ledgers, so a cancelled consumer never strands
		// deliveries. The Add is ordered against Cancel's stop flag under
		// c.mu: once Cancel has claimed the stop, no new pop can begin.
		c.mu.Lock()
		if c.stopped {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		c.popWG.Add(1)
		c.mu.Unlock()
		batch := q.popBatch(c, c.pref, n)
		c.popWG.Done()
		if len(batch) < n {
			c.releaseN(n - len(batch)) // return unused window slots
		}
		if len(batch) > 0 {
			return batch, nil
		}
		// Raced with other consumers (or cancelled mid-call): go round.
	}
}

// Cancel stops the consumer and requeues its unacked deliveries.
func (c *Consumer) Cancel() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	close(c.stopCh)
	c.mu.Unlock()
	q := c.q
	q.unregister(c)
	q.wakeAll()    // unpark the loop / blocked ReceiveBatch callers
	c.wg.Wait()    // push-mode loop drained
	c.popWG.Wait() // in-flight pops finished registering unacked
	// Requeue whatever this consumer still holds.
	var orphans []*Delivery
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		for d := sh.unacked; d != nil; d = d.next {
			if d.c == c {
				orphans = append(orphans, d)
			}
		}
		sh.mu.Unlock()
	}
	for _, d := range orphans {
		d.Nack(true) //nolint:errcheck // already-settled deliveries are fine
	}
}

// loop feeds a push-mode consumer's channel. It pops in batches bounded by
// the free prefetch window — one shard-lock round-trip per run instead of
// per message — and streams the batch into the channel, whose capacity
// equals the prefetch window, so a send only blocks while the application
// is holding the window full. PerOpDelay is charged once per message.
func (c *Consumer) loop() {
	defer c.wg.Done()
	defer close(c.ch)
	for {
		batch, err := c.next(c.prefetch)
		if err != nil {
			return
		}
		for i, d := range batch {
			if c.q.b.opts.PerOpDelay != nil {
				c.q.b.opts.PerOpDelay()
			}
			select {
			case c.ch <- d:
			case <-c.stopCh:
				// Requeue the undelivered tail of the batch.
				for _, rest := range batch[i:] {
					rest.Nack(true) //nolint:errcheck
				}
				return
			}
		}
	}
}

func (c *Consumer) isStopped() bool {
	select {
	case <-c.stopCh:
		return true
	default:
		return false
	}
}
