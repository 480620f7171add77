// Package tuning provides the live knob handle shared by the hot paths and
// the autotune controller. A Live value holds the run's mutable broker batch
// size behind a single atomic load, so a hot path pays exactly one
// uncontended load per batch decision whether or not anything ever mutates
// the knob. The scheduler-pool size rides along as a value fixed when the
// handle is built.
//
// Bounds are immutable after construction: SetBatchSize clamps into them,
// and a handle built with Fixed has collapsed bounds, making every set a
// no-op. That is the disabled-autotune contract — the handle still exists,
// the hot path still reads it, but the values can never change.
package tuning

import (
	"runtime"
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

// Live is the run's knob block. The zero value is not usable; build one
// with Fixed or NewBounded.
type Live struct {
	batch  atomic.Int64
	scheds int

	minBatch, maxBatch int

	version atomic.Uint64
}

// Fixed returns a handle whose batch bounds collapse onto the given value:
// reads are live, writes are no-ops. This is the autotune-off configuration.
func Fixed(batch, schedulers int) *Live {
	return NewBounded(batch, batch, batch, schedulers)
}

// NewBounded returns a handle starting at batch and clamping every future
// set into [minBatch, maxBatch], with a scheduler pool of the given fixed
// size. All values are floored at 1; inverted bounds are normalized.
func NewBounded(batch, minBatch, maxBatch, schedulers int) *Live {
	l := &Live{scheds: max(1, schedulers)}
	l.minBatch, l.maxBatch = max(1, minBatch), max(1, minBatch, maxBatch)
	l.batch.Store(int64(min(max(batch, l.minBatch), l.maxBatch)))
	return l
}

// BatchSize returns the current broker batch knob: one atomic load.
func (l *Live) BatchSize() int { return int(l.batch.Load()) }

// Schedulers returns the scheduler-pool size, fixed at construction.
func (l *Live) Schedulers() int { return l.scheds }

// MaxBatch reports the batch knob's immutable upper bound, the
// consumer-prefetch bound: a consumer registered with it can realize any
// batch size the controller may later steer to.
func (l *Live) MaxBatch() int { return l.maxBatch }

// Version counts committed knob changes (0 for a handle never mutated).
func (l *Live) Version() uint64 { return l.version.Load() }

// SetBatchSize requests a new batch size, clamped into bounds. It returns
// the previous and committed values; changed is false when the clamp made
// the set a no-op (no version bump).
func (l *Live) SetBatchSize(n int) (from, to int, changed bool) {
	n = min(max(n, l.minBatch), l.maxBatch)
	for {
		from = int(l.batch.Load())
		if from == n {
			return from, from, false
		}
		if l.batch.CompareAndSwap(int64(from), int64(n)) {
			l.version.Add(1)
			return from, n, true
		}
	}
}
