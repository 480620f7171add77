package autotune

import (
	"time"

	"repro/internal/tuning"
)

// This file is the live half of the package: where FindConcurrency automates
// the paper's offline Fig 10 read-off, Controller closes the loop at runtime
// — sampling the run's observability counters on a fixed virtual cadence and
// steering the hot-path knobs (broker batch size, scheduler-pool size)
// through a tuning.Live handle while the run executes.

// Knob names used in KnobChange records and knob events.
const (
	KnobBatch      = "batch"
	KnobSchedulers = "schedulers"
)

// KnobChange is one committed controller decision.
type KnobChange struct {
	// Knob is KnobBatch or KnobSchedulers.
	Knob string
	// From and To are the knob values before and after the change.
	From, To int
	// Reason names the rule that fired: "queue-pressure", "latency-spike",
	// "drop-burst", "steal-storm", "backlog-parallelism", "host-strain".
	Reason string
}

// Policy configures the controller. Enabled gates the whole loop — when
// false no controller goroutine exists and the hot paths read a
// collapsed-bounds handle whose values never change.
type Policy struct {
	// Enabled turns the control loop on. Off by default.
	Enabled bool
	// Interval is the sampling cadence in virtual time (default 2s).
	Interval time.Duration
	// StrainThreshold: concurrently managed tasks beyond which the
	// controller abandons its rules and jumps to the conservative operating
	// point (0 = never; the core wiring fills it from the host model's
	// StrainThreshold).
	StrainThreshold int
}

// The rules' constants.
const (
	// patience is how many consecutive samples a condition must hold before
	// a knob moves — the first half of the hysteresis damping.
	patience = 2
	// cooldownSamples is how many samples every knob holds still after any
	// change — the second half: a decision must be observed through the
	// pipeline before the next one is allowed.
	cooldownSamples = 2
	// highDepthFactor: the backlog (broker queue depth + store depth) that
	// counts as sustained pressure, in multiples of the current batch size.
	// Strictly-greater comparison, so a signal sitting exactly on the
	// watermark never triggers.
	highDepthFactor = 4
	// latencySpike: per-task virtual dispatch latency above which the batch
	// shrinks.
	latencySpike = 250 * time.Millisecond
	// stealFraction: steals/pulls ratio above which the scheduler pool
	// shrinks. The pool grows only when the ratio is strictly below half
	// this value and pressure is high.
	stealFraction = 0.5
	// conservativeBatch and conservativeSchedulers are the host-strain
	// fallback operating point: small enough batches to keep latency
	// bounded, one strict-FIFO scheduler.
	conservativeBatch      = 256
	conservativeSchedulers = 1
)

// Signals is one sample of the run's observability counters. Counters
// (Pulls, Steals, Dispatched, SchedulerBusy, EventDrops) are cumulative
// since run start; the controller differences consecutive samples itself.
// Signals is plain data so decision rules are table-testable without a run.
type Signals struct {
	// QueueDepth is the pending queue's ready message count at the broker.
	QueueDepth int
	// StoreDepth is the RTS task store's total queued task count.
	StoreDepth int
	// ShardDepths are the store's per-shard depths (imbalance feeds the
	// steal signal indirectly; recorded for diagnostics).
	ShardDepths []int
	// Pulls and Steals are the store's cumulative pull-batch and
	// stolen-batch counters.
	Pulls  uint64
	Steals uint64
	// Dispatched is the cumulative per-scheduler dispatch count.
	Dispatched []uint64
	// SchedulerBusy is the cumulative per-scheduler virtual time spent
	// dispatching pulled batches; Δbusy/Δdispatched is the per-task
	// dispatch latency the spike rule watches.
	SchedulerBusy []time.Duration
	// EventDrops is the cumulative drop-oldest discard count across all
	// in-process event subscriptions.
	EventDrops uint64
	// ActiveTasks is the engine's count of concurrently managed tasks —
	// the host-strain signal.
	ActiveTasks int
}

// Controller holds the decision state between samples. It is not
// goroutine-safe: Step is called from one sampling loop (Run).
type Controller struct {
	live *tuning.Live
	pol  Policy

	prev     Signals
	havePrev bool
	cooldown int

	growBatch   int
	shrinkBatch int
	shrinkSched int
	growSched   int
}

// NewController returns a controller steering the given live handle under
// the given policy (defaults applied).
func NewController(live *tuning.Live, pol Policy) *Controller {
	if pol.Interval <= 0 {
		pol.Interval = 2 * time.Second
	}
	return &Controller{live: live, pol: pol}
}

func (c *Controller) resetStreaks() {
	c.growBatch, c.shrinkBatch, c.shrinkSched, c.growSched = 0, 0, 0, 0
}

// Step feeds one sample through the decision rules and applies any resulting
// knob moves to the live handle, returning the committed changes. Rules are
// hysteresis-damped twice over: a condition must hold for patience
// consecutive samples to move a knob, and after any move every knob holds
// still for cooldownSamples samples. All comparisons are strict, so a signal
// sitting exactly on a watermark triggers nothing (no boundary oscillation).
func (c *Controller) Step(sig Signals) []KnobChange {
	defer func() { c.prev, c.havePrev = sig, true }()

	// Host strain preempts everything, including cooldown: the hostmodel
	// says the management plane is saturating, so jump straight to the
	// conservative operating point.
	if c.pol.StrainThreshold > 0 && sig.ActiveTasks > c.pol.StrainThreshold {
		c.resetStreaks()
		var out []KnobChange
		if from, to, ok := c.live.SetBatchSize(conservativeBatch); ok {
			out = append(out, KnobChange{Knob: KnobBatch, From: from, To: to, Reason: "host-strain"})
		}
		if from, to, ok := c.live.SetSchedulers(conservativeSchedulers); ok {
			out = append(out, KnobChange{Knob: KnobSchedulers, From: from, To: to, Reason: "host-strain"})
		}
		c.cooldown = cooldownSamples
		return out
	}

	if !c.havePrev {
		return nil // first sample only establishes the delta baseline
	}
	if c.cooldown > 0 {
		c.cooldown--
		return nil
	}

	// Deltas since the previous sample.
	dPulls := sig.Pulls - c.prev.Pulls
	dSteals := sig.Steals - c.prev.Steals
	dDrops := sig.EventDrops - c.prev.EventDrops
	dDispatched := sumU64(sig.Dispatched) - sumU64(c.prev.Dispatched)
	dBusy := sumDur(sig.SchedulerBusy) - sumDur(c.prev.SchedulerBusy)

	batch := c.live.BatchSize()
	backlog := float64(sig.QueueDepth + sig.StoreDepth)
	pressure := backlog > highDepthFactor*float64(batch)

	var perTask time.Duration
	if dDispatched > 0 {
		perTask = dBusy / time.Duration(dDispatched)
	}
	spike := perTask > latencySpike
	dropBurst := dDrops > 0

	stealRatio := -1.0 // no pulls this sample: steal signal is silent
	if dPulls > 0 {
		stealRatio = float64(dSteals) / float64(dPulls)
	}

	var out []KnobChange

	// Batch rules. Shrink conditions outrank growth: a latency spike or a
	// drop burst means the downstream is choking on batch size, and growing
	// it under pressure at the same time would fight the shrink.
	switch {
	case spike || dropBurst:
		c.growBatch = 0
		c.shrinkBatch++
		if c.shrinkBatch >= patience {
			reason := "latency-spike"
			if dropBurst && !spike {
				reason = "drop-burst"
			}
			if from, to, ok := c.live.SetBatchSize(batch / 2); ok {
				out = append(out, KnobChange{Knob: KnobBatch, From: from, To: to, Reason: reason})
			}
			c.shrinkBatch = 0
		}
	case pressure:
		c.shrinkBatch = 0
		c.growBatch++
		if c.growBatch >= patience {
			if from, to, ok := c.live.SetBatchSize(batch * 2); ok {
				out = append(out, KnobChange{Knob: KnobBatch, From: from, To: to, Reason: "queue-pressure"})
			}
			c.growBatch = 0
		}
	default:
		c.growBatch, c.shrinkBatch = 0, 0
	}

	// Scheduler rules, driven by the steal-to-pull ratio: dominant stealing
	// means too many loops contend over too little work, so shrink the
	// pool; high backlog with quiet steals means the pool has headroom.
	scheds := c.live.Schedulers()
	switch {
	case stealRatio > stealFraction:
		c.growSched = 0
		c.shrinkSched++
		if c.shrinkSched >= patience {
			if from, to, ok := c.live.SetSchedulers(scheds - 1); ok {
				out = append(out, KnobChange{Knob: KnobSchedulers, From: from, To: to, Reason: "steal-storm"})
			}
			c.shrinkSched = 0
		}
	case pressure && stealRatio >= 0 && stealRatio < stealFraction/2:
		c.shrinkSched = 0
		c.growSched++
		if c.growSched >= patience {
			if from, to, ok := c.live.SetSchedulers(scheds + 1); ok {
				out = append(out, KnobChange{Knob: KnobSchedulers, From: from, To: to, Reason: "backlog-parallelism"})
			}
			c.growSched = 0
		}
	default:
		c.shrinkSched, c.growSched = 0, 0
	}

	if len(out) > 0 {
		c.cooldown = cooldownSamples
	}
	return out
}

// Run samples on the policy cadence until stop closes. after is the virtual
// clock's timer constructor, sample assembles one Signals view, and apply
// (optional) observes committed changes — the core wiring uses it to emit
// knob events and charge the tuning cost to the profiler.
func (c *Controller) Run(stop <-chan struct{}, after func(time.Duration) <-chan time.Time, sample func() Signals, apply func([]KnobChange)) {
	for {
		select {
		case <-stop:
			return
		case <-after(c.pol.Interval):
		}
		changes := c.Step(sample())
		if len(changes) > 0 && apply != nil {
			apply(changes)
		}
	}
}

func sumU64(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumDur(xs []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range xs {
		s += x
	}
	return s
}
