// Package vclock provides the virtual clocks that drive every simulated
// duration in the repository.
//
// The paper's experiments measure seconds-to-hours of wall time on HPC
// machines. To reproduce the *shape* of those experiments on a laptop, all
// modelled durations (task runtimes, batch-queue waits, data staging,
// per-message host costs) flow through a Clock. A Scaled clock maps one
// virtual second to a small, configurable amount of wall time, so a 600 s
// GROMACS task finishes in milliseconds while concurrency, ordering and
// contention behave exactly as they would in real time. A Manual clock gives
// unit tests deterministic, instantaneous control over time.
package vclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the simulator. Now
// returns the current virtual time; Sleep blocks the caller for a virtual
// duration. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Time
	// Sleep blocks for d of virtual time. Non-positive durations return
	// immediately.
	Sleep(d time.Duration)
	// After returns a channel that receives the virtual time once d of
	// virtual time has elapsed.
	After(d time.Duration) <-chan time.Time
}

// Epoch is the virtual time origin used by all clocks in this package.
// Using a fixed epoch keeps experiment traces reproducible across runs.
var Epoch = time.Date(2018, 5, 16, 0, 0, 0, 0, time.UTC)

// Scaled is a Clock in which one virtual second costs a fixed amount of wall
// time. A scale of 1ms means a 600 s virtual sleep returns after 600 ms of
// wall time. The zero value is not usable; use NewScaled.
type Scaled struct {
	scale float64 // wall seconds per virtual second
	start time.Time
}

// NewScaled returns a Scaled clock where one virtual second takes
// wallPerVirtualSecond of wall time. wallPerVirtualSecond must be positive.
func NewScaled(wallPerVirtualSecond time.Duration) *Scaled {
	if wallPerVirtualSecond <= 0 {
		panic("vclock: non-positive scale")
	}
	return &Scaled{
		scale: wallPerVirtualSecond.Seconds(),
		start: time.Now(),
	}
}

// Now returns Epoch plus the scaled wall time elapsed since the clock was
// created.
func (s *Scaled) Now() time.Time {
	wall := time.Since(s.start)
	virtual := time.Duration(float64(wall) / s.scale)
	return Epoch.Add(virtual)
}

// minWallSleep is the wall duration below which Sleep returns immediately:
// the OS timer granularity (~60 µs on Linux) makes shorter sleeps pure
// overhead, and overhead accounting is exact (profiler-side) regardless.
const minWallSleep = 50 * time.Microsecond

// Sleep blocks for d of virtual time (d*scale of wall time). Sub-resolution
// wall sleeps are elided.
func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	wall := time.Duration(float64(d) * s.scale)
	if wall < minWallSleep {
		return
	}
	time.Sleep(wall)
}

// After returns a channel receiving the virtual time after d virtual time.
// It is timer-based rather than goroutine-based: callers race After against
// other channels in select loops and abandon the losers, and a parked
// goroutine per abandoned call would linger for the full scaled duration
// (the pilot-walltime watcher alone would hold one for the whole run).
// An unreferenced timer costs nothing after GC.
func (s *Scaled) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- s.Now()
		return ch
	}
	time.AfterFunc(time.Duration(float64(d)*s.scale), func() {
		ch <- s.Now()
	})
	return ch
}

// Manual is a Clock that only moves when Advance is called. Sleepers block
// until the clock passes their deadline. It is intended for deterministic
// unit tests of time-dependent logic.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
}

// NewManual returns a Manual clock positioned at Epoch.
func NewManual() *Manual {
	return &Manual{now: Epoch}
}

type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int            { return len(h) }
func (h waiterHeap) Less(i, j int) bool  { return h[i].deadline.Before(h[j].deadline) }
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Now returns the current manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep blocks until Advance moves the clock past the deadline.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After returns a channel that fires when the manual clock reaches now+d.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	heap.Push(&m.waiters, &waiter{deadline: m.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward by d, releasing every sleeper whose
// deadline has been reached, in deadline order.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	var due []*waiter
	for len(m.waiters) > 0 && !m.waiters[0].deadline.After(m.now) {
		due = append(due, heap.Pop(&m.waiters).(*waiter))
	}
	now := m.now
	m.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

// Pending reports how many sleepers are waiting on the clock.
func (m *Manual) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// Elapsed returns the virtual time elapsed since Epoch on clock c.
func Elapsed(c Clock) time.Duration {
	return c.Now().Sub(Epoch)
}

// Seconds converts a virtual duration to float seconds; a convenience for
// experiment reporting, which uses the paper's units.
func Seconds(d time.Duration) float64 { return d.Seconds() }
