package main

import (
	"sync"
	"time"
)

// The calibrator is a fixed synthetic job, frozen with the benchmark and
// built from nothing but the standard library, that is timed between the
// reps of the closed-loop workloads. This box's speed moves by tens of per
// cent in phases minutes long (see "Steadiness" in the README): a loop of
// pure arithmetic does not feel them, but goroutine hand-offs, allocation
// and map traffic do, and so does the toolkit. One sample is therefore a
// stretch of arithmetic plus a batch pipeline of goroutines; the ratio of
// its median over a pass to calReferenceS is how much slower than the
// reference the box ran during that pass, and the timing metrics of the pass
// are divided by it. A change to the program cannot move the calibrator, so
// a real gain or loss moves the normalised metric by exactly as much as the
// raw one.
const (
	calSpinIters = 2_000_000 // xorshift steps of the arithmetic part, about 4 ms
	calItems     = ensembleTasks
	calBatch     = 64
	calStages    = 4
	// calReferenceS is one sample's usual median on the reference box (2
	// vCPUs, GOMAXPROCS=2). It only fixes the scale: normalised numbers read
	// as "on the reference box in its usual state".
	calReferenceS = 0.016
	// calShare is the share of a calibrated pass spent in the calibrator. A
	// sample scatters by about 40 % around the pass's median, so the median
	// needs a few hundred samples to be good to 2 %.
	calShare = 0.3
)

var calSink uint64 // keeps the arithmetic from being optimised away

type calItem struct {
	id  int
	pad [6]uint64
}

// calSample runs the synthetic job once and returns how long it took.
func calSample() time.Duration {
	t0 := time.Now()

	x := uint64(88172645463325252)
	for i := 0; i < calSpinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calSink += x

	// calStages goroutines in a row, each copying every item of a batch into
	// a fresh allocation, recording it in its own mutex-guarded map and
	// handing the batch on: the hand-offs, allocation and map traffic of the
	// toolkit's own component chain, with none of its code.
	stage := func(in <-chan []*calItem, wg *sync.WaitGroup) <-chan []*calItem {
		out := make(chan []*calItem, 8) // a few batches in flight, as between the toolkit's components
		go func() {
			defer wg.Done()
			defer close(out)
			var mu sync.Mutex
			seen := make(map[int]*calItem)
			for batch := range in {
				next := make([]*calItem, 0, len(batch))
				for _, it := range batch {
					c := &calItem{id: it.id}
					mu.Lock()
					seen[c.id] = c
					mu.Unlock()
					next = append(next, c)
				}
				out <- next
			}
		}()
		return out
	}
	var wg sync.WaitGroup
	wg.Add(calStages + 1)
	source := make(chan []*calItem, 8) // as above
	var last <-chan []*calItem = source
	for i := 0; i < calStages; i++ {
		last = stage(last, &wg)
	}
	go func() {
		defer wg.Done()
		defer close(source)
		for i := 0; i < calItems; i += calBatch {
			batch := make([]*calItem, calBatch)
			for j := range batch {
				batch[j] = &calItem{id: i + j}
			}
			source <- batch
		}
	}()
	for range last {
	}
	wg.Wait()
	return time.Since(t0)
}

// calibration collects one pass's calibrator samples.
type calibration struct {
	samples []float64 // seconds
	spent   time.Duration
}

func (c *calibration) sample() {
	d := calSample()
	c.samples = append(c.samples, d.Seconds())
	c.spent += d
}

// topUp samples until the calibrator has had calShare of the pass so far,
// of which the workload itself has taken busy. It always takes at least one
// sample, so every rep has one beside it.
func (c *calibration) topUp(busy time.Duration) {
	for {
		c.sample()
		if float64(c.spent) >= calShare*float64(busy+c.spent) {
			return
		}
	}
}

// slowdown is how much slower than the reference the box ran during the
// pass: 1 for a pass that did not calibrate.
func (c *calibration) slowdown() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / calReferenceS
}
