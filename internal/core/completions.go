package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Outbox is the producer half of the completion contract (DrainCompletions is
// the consumer half), the result side every core.RTS implementation shares:
// the completion channel, the stop signal and the goroutines that must exit
// before the channel closes, the rule that a dead RTS loses its in-flight
// results, and the task counters of Stats. Init it in place before use, or
// Join it to a composite's; it must not be copied afterwards.
type Outbox struct {
	ch        chan TaskResult
	stop      chan struct{}
	stopOnce  sync.Once
	producers sync.WaitGroup
	dead      atomic.Bool
	joined    bool // ch is a composite's: its Stop closes it, not this one's

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
}

// Init makes the completion channel with room for capacity results.
func (o *Outbox) Init(capacity int) {
	o.ch = make(chan TaskResult, capacity)
	o.stop = make(chan struct{})
}

// Join readies o, in place of Init, for a member of a composite RTS: o
// delivers on parent's completion channel but keeps its own stop signal, dead
// flag and counters, so each member decides what it drops. o's Stop leaves
// the channel open; parent's closes it, after every member has stopped.
func (o *Outbox) Join(parent *Outbox) {
	o.ch = parent.ch
	o.stop = make(chan struct{})
	o.joined = true
}

// Completions is the channel RTS.Completions returns.
func (o *Outbox) Completions() <-chan TaskResult { return o.ch }

// Go runs producer on a goroutine of its own that Stop waits for.
func (o *Outbox) Go(producer func()) {
	o.producers.Add(1)
	go func() {
		defer o.producers.Done()
		producer()
	}()
}

// Submitted counts n tasks the RTS accepted.
func (o *Outbox) Submitted(n int) { o.submitted.Add(int64(n)) }

// Deliver counts res and hands it to the consumer. A dead RTS drops it
// instead (it loses its in-flight tasks: the paper's failure model), and so
// does a stopping one whose channel is full. It reports whether res went out.
func (o *Outbox) Deliver(res TaskResult) bool {
	if o.dead.Load() {
		return false
	}
	// Counted before the send, so a consumer holding res finds it in Count;
	// a result dropped on the stopping path is taken back out, failed first.
	failed := res.ExitCode != 0
	o.completed.Add(1)
	if failed {
		o.failed.Add(1)
	}
	// The channel almost always has room, so the send is tried alone first;
	// only a full channel pays for the two-way wait against stop.
	select {
	case o.ch <- res:
	default:
		select {
		case o.ch <- res:
		case <-o.stop:
			if failed {
				o.failed.Add(-1)
			}
			o.completed.Add(-1)
			return false
		}
	}
	return true
}

// Completed is how many results Deliver handed out (or is handing out).
func (o *Outbox) Completed() int64 { return o.completed.Load() }

// Kill marks the RTS dead, so Deliver drops from now on. It reports whether
// this call was the one that killed it.
func (o *Outbox) Kill() bool { return o.dead.CompareAndSwap(false, true) }

// Dead reports whether Kill was called.
func (o *Outbox) Dead() bool { return o.dead.Load() }

// Stopping is closed when Stop begins.
func (o *Outbox) Stopping() <-chan struct{} { return o.stop }

// Stopped reports whether Stop has begun.
func (o *Outbox) Stopped() bool {
	select {
	case <-o.stop:
		return true
	default:
		return false
	}
}

// Stop ends delivery, once: it closes Stopping, which unblocks a Deliver
// waiting on a full channel; runs release, which must make every producer
// not started with Go return; waits for the Go producers; and closes the
// completion channel unless o is joined. Later calls do nothing.
func (o *Outbox) Stop(release func()) {
	o.stopOnce.Do(func() {
		close(o.stop)
		release()
		o.producers.Wait()
		if !o.joined {
			close(o.ch)
		}
	})
}

// InFlight is how many accepted tasks have not been delivered: a member's
// load, as a composite's placement reads it.
func (o *Outbox) InFlight() int64 { return o.submitted.Load() - o.completed.Load() }

// Count writes the task counters into st: TasksSubmitted, TasksCompleted,
// TasksFailed and Utilization.TasksInFlight. In-flight is submitted less
// completed of the same reading, so the two always add up; failed is read
// first, so it never exceeds completed (short of a stopping Deliver taking a
// dropped failure back out between the two reads).
func (o *Outbox) Count(st *RTSStats) {
	st.TasksFailed = int(o.failed.Load())
	st.TasksCompleted = int(o.completed.Load())
	st.TasksSubmitted = int(o.submitted.Load())
	st.Utilization.TasksInFlight = st.TasksSubmitted - st.TasksCompleted
}

// completionBatch bounds how many results one DrainCompletions call returns.
const completionBatch = 256

// DrainCompletions is how a consumer reads RTS.Completions: it blocks for the
// first result, yields the processor once so that every executor already
// runnable delivers too (a channel send hands the processor to the receiver
// it woke, ahead of them — without the yield an 8-task stage arrives as ~7
// separate bursts, each paying its own done-message and commit round trip),
// then takes whatever is queued without blocking, up to completionBatch. A
// backlog that fills the batch by itself is taken without the yield: there
// is nothing to wait for, and the yield would queue the consumer behind
// every runnable executor of a wide stage. Results come back in channel
// order in buf, which is reused across calls; an empty return means the
// channel is closed and drained.
func DrainCompletions(ch <-chan TaskResult, buf []TaskResult) []TaskResult {
	buf = buf[:0]
	res, ok := <-ch
	if !ok {
		return buf
	}
	buf = append(buf, res)
	if len(ch) < completionBatch-1 {
		runtime.Gosched()
	}
	for len(buf) < completionBatch {
		select {
		case res, ok := <-ch:
			if !ok {
				return buf
			}
			buf = append(buf, res)
		default:
			return buf
		}
	}
	return buf
}
