package rts

import (
	"sync"
	"sync/atomic"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/msgcodec"
)

// store is the task mailbox between the UnitManager and the Agent — the
// role MongoDB plays in RADICAL-Pilot ("The UnitManager schedules each task
// to an Agent via a queue on a MongoDB instance. Each Agent pulls its tasks
// from the DB module"). Like the broker's queues it is sharded: each Push
// lands its batch on one independently locked shard, round-robin. Pullers
// come in two shapes, matching the two agent configurations:
//
//   - PullBatch drains the shard whose front batch carries the lowest push
//     sequence — with a single scheduler that reproduces strict push-order
//     FIFO exactly;
//   - PullBatchPreferred drains a preferred shard and work-steals from the
//     next non-empty one, the same structure the broker's consumers use —
//     the multi-scheduler agent's side, where each scheduler loop owns a
//     preferred shard and cross-shard ordering is traded for parallel drain.
//
// It is a blocking-pull FIFO with optional journal-backed durability.
type store struct {
	shards  []*storeShard
	pushSeq atomic.Uint64 // batch sequence, also the round-robin cursor

	notifyMu sync.Mutex
	cond     *sync.Cond
	closed   atomic.Bool

	jrn *journal.Journal // optional

	pushed atomic.Uint64
	pulled atomic.Uint64
	steals atomic.Uint64 // pull batches served off a non-preferred shard

	errMu sync.Mutex
	err   error // first journaling failure; the store closes with it
}

// storeBatch is one Push call's tasks, stamped with its push sequence.
type storeBatch struct {
	seq   uint64
	tasks []core.TaskDescription
}

// storeShard is one independently locked slice of the store's queue.
type storeShard struct {
	mu      sync.Mutex
	batches []storeBatch
	// headSeq mirrors the sequence of the front batch (0 = empty) so
	// pullers can pick a shard lock-free.
	headSeq atomic.Uint64
	depth   atomic.Int64
}

func (s *storeShard) syncHeadLocked() {
	if len(s.batches) == 0 {
		s.headSeq.Store(0)
		return
	}
	s.headSeq.Store(s.batches[0].seq)
}

func newStore(jrn *journal.Journal, shards int) *store {
	if shards == 0 {
		shards = broker.DefaultShards()
	}
	if shards < 1 {
		shards = 1
	}
	s := &store{jrn: jrn, shards: make([]*storeShard, shards)}
	for i := range s.shards {
		s.shards[i] = &storeShard{}
	}
	s.cond = sync.NewCond(&s.notifyMu)
	return s
}

// storeRecType namespaces the store's audit records in the journal. The
// payload is a typed msgcodec.StoreRec frame, one record per Push or
// Pull/PullBatch call, covering every task the call moved — one append
// amortized over the whole operation.
const storeRecType = "rts.store"

func (s *store) journalOp(op string, tasks []core.TaskDescription) error {
	if s.jrn == nil || len(tasks) == 0 {
		return nil
	}
	uids := make([]string, len(tasks))
	for i, t := range tasks {
		uids[i] = t.UID
	}
	_, err := s.jrn.AppendRaw(storeRecType, msgcodec.FormatBinary.EncodeStoreRec(op, uids))
	return err
}

// fail records the first journaling error and closes the store: an audit
// record that cannot be appended surfaces as a store failure — killing the
// RTS so EnTK resubmits the lost tasks — instead of silently vanishing
// (the execmanager's no-swallowed-errors rule).
func (s *store) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.Close()
}

// Err returns the journaling failure the store closed with, if any.
func (s *store) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Push appends task descriptions as one sequence-stamped batch on the next
// round-robin shard, journaling the batch as one record.
func (s *store) Push(tasks []core.TaskDescription) error {
	if s.closed.Load() {
		return errStoreClosed
	}
	if err := s.journalOp("push", tasks); err != nil {
		return err
	}
	seq := s.pushSeq.Add(1)
	sh := s.shards[int((seq-1)%uint64(len(s.shards)))]
	sh.mu.Lock()
	// Copy so later caller mutations of the slice cannot reach the queue.
	batch := storeBatch{seq: seq, tasks: append([]core.TaskDescription(nil), tasks...)}
	sh.batches = append(sh.batches, batch)
	sh.depth.Add(int64(len(tasks)))
	sh.syncHeadLocked()
	sh.mu.Unlock()
	s.pushed.Add(uint64(len(tasks)))
	s.notifyMu.Lock()
	s.cond.Broadcast()
	s.notifyMu.Unlock()
	return nil
}

// minShard returns the shard whose front batch has the lowest push
// sequence, or nil when all shards look empty.
func (s *store) minShard() *storeShard {
	var best *storeShard
	var bestSeq uint64
	for _, sh := range s.shards {
		if seq := sh.headSeq.Load(); seq != 0 && (best == nil || seq < bestSeq) {
			best, bestSeq = sh, seq
		}
	}
	return best
}

// popShard pops up to max tasks from sh's front batch under its lock.
// ok=false means the shard was empty (raced with a concurrent puller).
func (s *store) popShard(sh *storeShard, max int) ([]core.TaskDescription, bool) {
	sh.mu.Lock()
	if len(sh.batches) == 0 {
		sh.mu.Unlock()
		return nil, false
	}
	front := &sh.batches[0]
	n := max
	if len(front.tasks) < n {
		n = len(front.tasks)
	}
	out := front.tasks[:n:n]
	front.tasks = front.tasks[n:]
	if len(front.tasks) == 0 {
		sh.batches[0] = storeBatch{}
		sh.batches = sh.batches[1:]
	}
	sh.depth.Add(-int64(n))
	sh.syncHeadLocked()
	sh.mu.Unlock()
	s.pulled.Add(uint64(n))
	return out, true
}

// popBatch pops up to max tasks from the oldest batch. ok=false means every
// shard was empty at the time of the scan.
func (s *store) popBatch(max int) ([]core.TaskDescription, bool) {
	for {
		sh := s.minShard()
		if sh == nil {
			return nil, false
		}
		if out, ok := s.popShard(sh, max); ok {
			return out, true
		}
		// Raced with a concurrent puller; rescan.
	}
}

// popPreferred pops up to max tasks from the preferred shard's front batch,
// or — work-stealing — from the next non-empty shard in rotation. A pop
// served off a non-preferred shard counts in the Steals statistic.
func (s *store) popPreferred(pref, max int) ([]core.TaskDescription, bool) {
	n := len(s.shards)
	pref %= n
	for i := 0; i < n; i++ {
		sh := s.shards[(pref+i)%n]
		if sh.headSeq.Load() == 0 {
			continue
		}
		if out, ok := s.popShard(sh, max); ok {
			if i != 0 {
				s.steals.Add(1)
			}
			return out, true
		}
	}
	return nil, false
}

// waitReady blocks until a task is available or the store closes; it
// reports whether tasks may be available.
func (s *store) waitReady() bool {
	s.notifyMu.Lock()
	for s.Depth() == 0 && !s.closed.Load() {
		s.cond.Wait()
	}
	s.notifyMu.Unlock()
	return s.Depth() > 0 || !s.closed.Load()
}

// Pull blocks until a task is available or the store closes (ok=false).
func (s *store) Pull() (core.TaskDescription, bool) {
	batch, ok := s.PullBatch(1)
	if !ok || len(batch) == 0 {
		return core.TaskDescription{}, false
	}
	return batch[0], true
}

// PullBatch blocks until at least one task is available, then pops up to
// max tasks — in strict push-sequence order — under one shard-lock
// acquisition and one journal append. ok=false means the store closed; a
// journal append that fails closes the store (see fail), so the failure is
// never silently dropped.
func (s *store) PullBatch(max int) ([]core.TaskDescription, bool) {
	return s.pullLoop(max, func(m int) ([]core.TaskDescription, bool) {
		return s.popBatch(m)
	})
}

// PullBatchPreferred is PullBatch for one multi-scheduler loop: it drains
// the preferred shard first and steals from the next non-empty shard,
// giving up strict cross-shard push order for parallel drain (each shard
// stays FIFO on its own).
func (s *store) PullBatchPreferred(pref, max int) ([]core.TaskDescription, bool) {
	return s.pullLoop(max, func(m int) ([]core.TaskDescription, bool) {
		return s.popPreferred(pref, m)
	})
}

// pullLoop is the shared blocking-pull skeleton around one pop policy.
func (s *store) pullLoop(max int, pop func(int) ([]core.TaskDescription, bool)) ([]core.TaskDescription, bool) {
	if max <= 0 {
		max = 1
	}
	for {
		if s.closed.Load() && s.Depth() == 0 {
			return nil, false
		}
		batch, ok := pop(max)
		if ok {
			if err := s.journalOp("pull", batch); err != nil {
				// The popped tasks are dropped with the failing store — the
				// paper's failure model: a dead RTS loses its in-flight
				// tasks, and EnTK resubmits them on the replacement.
				s.fail(err)
				return nil, false
			}
			return batch, true
		}
		if s.closed.Load() {
			return nil, false
		}
		s.waitReady()
	}
}

// Depth returns the number of queued tasks.
func (s *store) Depth() int {
	var t int64
	for _, sh := range s.shards {
		t += sh.depth.Load()
	}
	return int(t)
}

// stats returns the store's QueueStats-style counter block; the agent's
// per-scheduler tallies are merged in by PilotRTS.StoreStats.
func (s *store) stats() core.StoreStats {
	st := core.StoreStats{
		Shards:      len(s.shards),
		ShardDepths: make([]int, len(s.shards)),
		Pushed:      s.pushed.Load(),
		Pulled:      s.pulled.Load(),
		Steals:      s.steals.Load(),
	}
	for i, sh := range s.shards {
		d := int(sh.depth.Load())
		st.ShardDepths[i] = d
		st.Depth += d
	}
	return st
}

// Close releases blocked pullers; queued tasks are dropped (a dead RTS
// loses its in-flight tasks, which EnTK resubmits).
func (s *store) Close() {
	s.closed.Store(true)
	s.notifyMu.Lock()
	s.cond.Broadcast()
	s.notifyMu.Unlock()
}

type storeClosedError struct{}

func (storeClosedError) Error() string { return "rts: store closed" }

var errStoreClosed = storeClosedError{}
