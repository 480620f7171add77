package rts

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/msgcodec"
)

// store is the task mailbox between the UnitManager and the Agent — the
// role MongoDB plays in RADICAL-Pilot ("The UnitManager schedules each task
// to an Agent via a queue on a MongoDB instance. Each Agent pulls its tasks
// from the DB module"). Like the broker's queues it is sharded: each Push
// lands its batch on one independently locked shard, round-robin, and each
// shard is FIFO. PilotRTS gives it one shard per scheduler loop, capped at
// the configured shard count; a loop drains its preferred shard and
// work-steals from the next non-empty one, the structure the broker's
// consumers use. A lone scheduler therefore drains a one-shard store, which
// is strict push-order FIFO by construction.
//
// It is a blocking-pull FIFO with optional journal-backed durability.
type store struct {
	shards  []*storeShard
	pushSeq atomic.Uint64 // the round-robin cursor

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

// storeShard is one independently locked slice of the store's queue: the
// Push batches that landed on it, oldest first.
type storeShard struct {
	mu      sync.Mutex
	batches [][]core.TaskDescription
	depth   atomic.Int64
}

// newStore builds a store of the given number of shards (at least one).
func newStore(jrn *journal.Journal, shards int) *store {
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
// PullBatch call, covering every task the call moved — one append
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

// Push appends task descriptions as one batch on the next round-robin
// shard, journaling the batch as one record.
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
	sh.batches = append(sh.batches, append([]core.TaskDescription(nil), tasks...))
	sh.depth.Add(int64(len(tasks)))
	sh.mu.Unlock()
	s.pushed.Add(uint64(len(tasks)))
	s.notifyMu.Lock()
	s.cond.Broadcast()
	s.notifyMu.Unlock()
	return nil
}

// popShard pops up to max tasks from sh's front batch under its lock.
// ok=false means the shard was empty (raced with a concurrent puller).
func (s *store) popShard(sh *storeShard, max int) ([]core.TaskDescription, bool) {
	sh.mu.Lock()
	if len(sh.batches) == 0 {
		sh.mu.Unlock()
		return nil, false
	}
	front := sh.batches[0]
	n := min(max, len(front))
	out := front[:n:n]
	if n == len(front) {
		sh.batches[0] = nil
		sh.batches = sh.batches[1:]
	} else {
		sh.batches[0] = front[n:]
	}
	sh.depth.Add(-int64(n))
	sh.mu.Unlock()
	s.pulled.Add(uint64(n))
	return out, true
}

// popPreferred pops up to max tasks from the preferred shard's front batch,
// or — work-stealing — from the next non-empty shard in rotation. A pop
// served off a non-preferred shard counts in the Steals statistic.
func (s *store) popPreferred(pref, max int) ([]core.TaskDescription, bool) {
	n := len(s.shards)
	pref %= n
	for i := 0; i < n; i++ {
		sh := s.shards[(pref+i)%n]
		if sh.depth.Load() == 0 {
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

// waitReady blocks until a task is available or the store closes.
func (s *store) waitReady() {
	s.notifyMu.Lock()
	for s.Depth() == 0 && !s.closed.Load() {
		s.cond.Wait()
	}
	s.notifyMu.Unlock()
}

// PullBatch blocks until at least one task is available, then pops up to
// max tasks off the preferred shard — or, when it is empty, the next
// non-empty one — under one shard-lock acquisition and one journal append.
// Each shard is FIFO; across shards there is no order. ok=false means the
// store closed; a journal append that fails closes the store (see fail), so
// the failure is never silently dropped.
func (s *store) PullBatch(pref, max int) ([]core.TaskDescription, bool) {
	if max <= 0 {
		max = 1
	}
	for {
		if s.closed.Load() && s.Depth() == 0 {
			return nil, false
		}
		if batch, ok := s.popPreferred(pref, max); ok {
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
	return core.StoreStats{
		Shards: len(s.shards),
		Depth:  s.Depth(),
		Pushed: s.pushed.Load(),
		Pulled: s.pulled.Load(),
		Steals: s.steals.Load(),
	}
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
