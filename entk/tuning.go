package entk

import (
	"fmt"
	"time"

	"repro/internal/autotune"
	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/rts"
	"repro/internal/tuning"
)

// defaultBatchSize mirrors the core's EmgrBatch default; defaultMaxBatch is
// the autotune controller's default batch-growth ceiling.
const (
	defaultBatchSize = 1024
	defaultMaxBatch  = 8192
)

// maxSchedulersPerShard bounds the scheduler knob: more than 8 scheduler
// loops per store shard only adds steal contention, so Validate rejects it
// as a configuration error instead of silently running a thrashing pool.
const maxSchedulersPerShard = 8

// Tuning consolidates the per-run performance knobs. The zero value is
// valid and selects every documented default. AppConfig.Tuning is the only
// place the knobs are set.
type Tuning struct {
	// BatchSize bounds the broker's batched hot path: how many tasks ride
	// in one pending-queue message and how many messages the Emgr pops per
	// broker round-trip. Default 1024; 1 restores the per-message path.
	BatchSize int
	// QueueShards is the number of independently locked ready rings behind
	// each task-traffic broker queue, and the cap on the RTS task store's
	// (which has one per scheduler loop). Default min(GOMAXPROCS, 8); 1
	// restores the single-lock queues.
	QueueShards int
	// SchedulerWorkers is the RTS agent's scheduler concurrency. Default
	// min(GOMAXPROCS, QueueShards); 1 restores strict push-order FIFO
	// dispatch off a one-shard store (see docs/api.md for the ordering
	// contract above 1).
	SchedulerWorkers int
	// SnapshotEvery is the durable mode's snapshot cadence in committed
	// state records. Default 1024; negative disables snapshots (journal
	// only, no compaction). Ignored without a journal directory.
	SnapshotEvery int
	// Autotune configures the live batch-size controller
	// (docs/autotune.md). Off by default: the hot paths then read a
	// collapsed-bounds knob handle whose values never change — one atomic
	// load, zero steering. SchedulerWorkers is never steered.
	Autotune Autotune
}

// Autotune is the Tuning policy block for the live knob controller: a
// per-run goroutine that samples the run's observability counters (queue
// depth, store depth, dispatch latency, event subscription drops, host
// strain) on a fixed virtual cadence and steers BatchSize between the
// bounds below while the run executes; the scheduler pool keeps the
// SchedulerWorkers size it was built with. Every decision is published as
// an EventKnob event and counted in Progress.KnobChanges. Only runs built
// by NewAppManager autotune: entkd has no autotune path. On remote agents
// the latency-spike rule never fires, because agents report no dispatch
// latency.
type Autotune struct {
	// Enabled turns the controller on. Off by default.
	Enabled bool
	// Interval is the sampling cadence in virtual time (default 2s).
	Interval time.Duration
	// MinBatch and MaxBatch bound the batch-size knob (defaults 1 and
	// 8192). The bounds are widened to include the starting BatchSize.
	MinBatch int
	MaxBatch int
}

// KnobError is the typed per-knob validation error: which knob, the
// offending value, and why no component can honor it.
type KnobError struct {
	Knob   string
	Value  int
	Reason string
}

// Error implements error.
func (e *KnobError) Error() string {
	return fmt.Sprintf("entk: tuning %s = %d: %s", e.Knob, e.Value, e.Reason)
}

// effectiveShards resolves the shard count Validate bounds the scheduler
// knob against: the configured QueueShards, or the broker default.
func (t Tuning) effectiveShards() int {
	if t.QueueShards > 0 {
		return t.QueueShards
	}
	return broker.DefaultShards()
}

// Validate checks the tuning for values no component can honor, reporting
// each as a *KnobError. It does not mutate: zero means "use the default" for
// every knob, and defaults are applied by the components that own each knob.
func (t Tuning) Validate() error {
	if t.BatchSize < 0 {
		return &KnobError{Knob: "BatchSize", Value: t.BatchSize, Reason: "negative (0 selects the default, 1 the per-message path)"}
	}
	if t.QueueShards < 0 {
		return &KnobError{Knob: "QueueShards", Value: t.QueueShards, Reason: "negative (0 selects the default)"}
	}
	if t.SchedulerWorkers < 0 {
		return &KnobError{Knob: "SchedulerWorkers", Value: t.SchedulerWorkers, Reason: "negative (0 selects the default)"}
	}
	shards := t.effectiveShards()
	if limit := shards * maxSchedulersPerShard; t.SchedulerWorkers > limit {
		return &KnobError{Knob: "SchedulerWorkers", Value: t.SchedulerWorkers,
			Reason: fmt.Sprintf("exceeds %d (8 per store shard, %d shards)", limit, shards)}
	}
	return t.Autotune.validate()
}

// validate checks the autotune policy block. Zero fields mean "default" and
// are always legal.
func (a Autotune) validate() error {
	if a.Interval < 0 {
		return &KnobError{Knob: "Autotune.Interval", Value: int(a.Interval), Reason: "negative"}
	}
	if a.MinBatch < 0 {
		return &KnobError{Knob: "Autotune.MinBatch", Value: a.MinBatch, Reason: "negative"}
	}
	if a.MaxBatch < 0 {
		return &KnobError{Knob: "Autotune.MaxBatch", Value: a.MaxBatch, Reason: "negative"}
	}
	if a.MinBatch > 0 && a.MaxBatch > 0 && a.MaxBatch < a.MinBatch {
		return &KnobError{Knob: "Autotune.MaxBatch", Value: a.MaxBatch,
			Reason: fmt.Sprintf("below Autotune.MinBatch %d", a.MinBatch)}
	}
	return nil
}

// resolvedTuning is the single source of truth for the run's knobs: the
// validated Tuning with every default applied to a concrete value, plus the
// one live handle shared by the EnTK core and the RTS it builds. Both
// core.Config and rts.Config are populated from here (applyCore/applyRTS),
// so the knob-resolution logic exists exactly once.
type resolvedTuning struct {
	tun    Tuning
	batch  int
	shards int
	scheds int
	live   *tuning.Live
	policy autotune.Policy
}

// resolveTuning validates cfg.Tuning, applies the documented defaults and
// builds the live knob handle — collapsed bounds when autotune is off, the
// policy's bounds when on.
func (cfg *AppConfig) resolveTuning() (*resolvedTuning, error) {
	t := cfg.Tuning
	if err := t.Validate(); err != nil {
		return nil, err
	}
	rt := &resolvedTuning{tun: t, batch: t.BatchSize, shards: t.QueueShards, scheds: t.SchedulerWorkers}
	if rt.batch == 0 {
		rt.batch = defaultBatchSize
	}
	if rt.shards == 0 {
		rt.shards = broker.DefaultShards()
	}
	rt.scheds = tuning.Schedulers(rt.scheds, rt.shards)
	a := t.Autotune
	if !a.Enabled {
		rt.live = tuning.Fixed(rt.batch, rt.scheds)
		return rt, nil
	}
	minB, maxB := a.MinBatch, a.MaxBatch
	if minB == 0 {
		minB = 1
	}
	if maxB == 0 {
		maxB = defaultMaxBatch
	}
	// The bounds always include the starting point, so enabling autotune
	// never moves a knob before the controller's first decision.
	if minB > rt.batch {
		minB = rt.batch
	}
	if maxB < rt.batch {
		maxB = rt.batch
	}
	rt.live = tuning.NewBounded(rt.batch, minB, maxB, rt.scheds)
	rt.policy = autotune.Policy{Enabled: true, Interval: a.Interval}
	return rt, nil
}

// applyCore fills core.Config's knob fields from the resolved tuning.
func (rt *resolvedTuning) applyCore(c *core.Config) {
	c.SnapshotEvery = rt.tun.SnapshotEvery
	c.EmgrBatch = rt.batch
	c.QueueShards = rt.shards
	c.SchedulerWorkers = rt.scheds
	c.Live = rt.live
	c.Autotune = rt.policy
}

// applyRTS fills rts.Config's knob fields from the resolved tuning. The
// live handle is the same one the core reads: a controller decision steers
// the broker batch path and the store pull bound together.
func (rt *resolvedTuning) applyRTS(c *rts.Config) {
	c.QueueShards = rt.shards
	c.Schedulers = rt.scheds
	c.Live = rt.live
}
