package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, so a reported value is always one that was measured.
// It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint of xs (mean of the two middle values for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// samplesBeyond counts how many of n samples lie above the p-th percentile
// under the nearest-rank rule. A percentile is trusted only with at least
// minBeyond samples above it.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

const minBeyond = 10

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is what
// the acceptance procedure in the README uses. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated. ReadMemStats
// stops the world, so it is called only at measurement boundaries.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// meter brackets one measured interval with wall, CPU and allocation
// counters.
type meter struct {
	t0      time.Time
	cpu0    time.Duration
	malloc0 uint64
}

func startMeter() meter {
	m := meter{malloc0: mallocs(), cpu0: cpuTime()}
	m.t0 = time.Now()
	return m
}

// stop returns the wall time, CPU time and allocations since startMeter.
func (m meter) stop() (wall, cpu time.Duration, allocs uint64) {
	wall = time.Since(m.t0)
	return wall, cpuTime() - m.cpu0, mallocs() - m.malloc0
}
