// Package tuning provides the live knob handle shared by the hot paths and
// the autotune controller. A Live value holds the run's mutable performance
// knobs — broker batch size and RTS scheduler-pool size — behind single
// atomic loads, so a hot path pays exactly one uncontended load per batch
// decision whether or not anything ever mutates the knobs.
//
// Bounds are immutable after construction: setters clamp into them, and a
// handle built with Fixed has collapsed bounds, making every set a no-op.
// That is the disabled-autotune contract — the handle still exists, the hot
// path still reads it, but the values can never change.
package tuning

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Schedulers resolves a configured scheduler-pool size: a positive value is
// taken as is, and 0 selects min(GOMAXPROCS, shards), floored at 1, so an
// unconfigured agent scales with the hardware but never runs more loops
// than there are shards to drain. entk and the RTS both resolve through it.
func Schedulers(configured, shards int) int {
	if configured > 0 {
		return configured
	}
	return max(1, min(runtime.GOMAXPROCS(0), shards))
}

// Live is the run's mutable knob block. The zero value is not usable; build
// one with Fixed or NewBounded.
type Live struct {
	batch  atomic.Int64
	scheds atomic.Int64

	minBatch, maxBatch   int
	minScheds, maxScheds int

	version atomic.Uint64

	// waitCh is closed and replaced on every committed change, so parked
	// consumers (scheduler loops above the live target) can select on it.
	mu     sync.Mutex
	waitCh chan struct{}
}

// Fixed returns a handle whose bounds collapse onto the given values: reads
// are live, writes are no-ops. This is the autotune-off configuration.
func Fixed(batch, schedulers int) *Live {
	return NewBounded(batch, batch, batch, schedulers, schedulers, schedulers)
}

// NewBounded returns a handle starting at (batch, schedulers) and clamping
// every future set into [minBatch, maxBatch] × [minScheds, maxScheds].
// All values are floored at 1; inverted bounds are normalized.
func NewBounded(batch, minBatch, maxBatch, schedulers, minScheds, maxScheds int) *Live {
	l := &Live{waitCh: make(chan struct{})}
	l.minBatch, l.maxBatch = normalizeBounds(minBatch, maxBatch)
	l.minScheds, l.maxScheds = normalizeBounds(minScheds, maxScheds)
	l.batch.Store(int64(clamp(batch, l.minBatch, l.maxBatch)))
	l.scheds.Store(int64(clamp(schedulers, l.minScheds, l.maxScheds)))
	return l
}

func normalizeBounds(lo, hi int) (int, int) {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BatchSize returns the current broker batch knob: one atomic load.
func (l *Live) BatchSize() int { return int(l.batch.Load()) }

// Schedulers returns the current scheduler-pool target: one atomic load.
func (l *Live) Schedulers() int { return int(l.scheds.Load()) }

// MinBatch and MaxBatch report the batch knob's immutable bounds. MaxBatch
// is the consumer-prefetch bound: a consumer registered with it can realize
// any batch size the controller may later steer to.
func (l *Live) MinBatch() int { return l.minBatch }

// MaxBatch reports the batch knob's upper bound.
func (l *Live) MaxBatch() int { return l.maxBatch }

// MinSchedulers and MaxSchedulers report the scheduler knob's immutable
// bounds. MaxSchedulers is the pool size to spawn: loops with id ≥ the live
// target park until the target grows back.
func (l *Live) MinSchedulers() int { return l.minScheds }

// MaxSchedulers reports the scheduler knob's upper bound.
func (l *Live) MaxSchedulers() int { return l.maxScheds }

// Version counts committed knob changes (0 for a handle never mutated).
func (l *Live) Version() uint64 { return l.version.Load() }

// Changed returns a channel closed at the next committed knob change. Take a
// fresh channel per wait — a returned channel stays closed forever once its
// change commits.
func (l *Live) Changed() <-chan struct{} {
	l.mu.Lock()
	ch := l.waitCh
	l.mu.Unlock()
	return ch
}

// SetBatchSize requests a new batch size, clamped into bounds. It returns
// the previous and committed values; changed is false when the clamp made
// the set a no-op (no version bump, no wake-up).
func (l *Live) SetBatchSize(n int) (from, to int, changed bool) {
	return l.set(&l.batch, n, l.minBatch, l.maxBatch)
}

// SetSchedulers requests a new scheduler-pool target, clamped into bounds.
func (l *Live) SetSchedulers(n int) (from, to int, changed bool) {
	return l.set(&l.scheds, n, l.minScheds, l.maxScheds)
}

func (l *Live) set(knob *atomic.Int64, n, lo, hi int) (from, to int, changed bool) {
	n = clamp(n, lo, hi)
	l.mu.Lock()
	from = int(knob.Load())
	if from == n {
		l.mu.Unlock()
		return from, from, false
	}
	knob.Store(int64(n))
	l.version.Add(1)
	close(l.waitCh)
	l.waitCh = make(chan struct{})
	l.mu.Unlock()
	return from, n, true
}
