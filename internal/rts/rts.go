package rts

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/journal"
	"repro/internal/profiler"
	"repro/internal/saga"
	"repro/internal/tuning"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Config assembles an RTS instance.
type Config struct {
	// Resource is the pilot request EnTK's Rmgr passes down.
	Resource core.ResourceDesc
	// Clock drives all modelled durations. Required.
	Clock vclock.Clock
	// Session is the SAGA session used to submit pilots. Required.
	Session *saga.Session
	// Registry resolves task executables. Required.
	Registry *workload.Registry
	// FS models the shared filesystem for staging and contention failures.
	// Optional; without it staging is free and contention never fails.
	FS *fsim.FS
	// Prof receives overhead measurements. Optional.
	Prof *profiler.Profiler
	// Model is the cost calibration; zero value selects ModelForCI.
	Model Model
	// Compute enables real kernel computation.
	Compute bool
	// Seed makes failure sampling reproducible.
	Seed int64
	// Faults injects failures.
	Faults FaultPlan
	// StorePath, when non-empty, journals the task store.
	StorePath string
	// QueueShards caps the task store's shard count the same way the EnTK
	// broker queues are sharded (0 = min(GOMAXPROCS, 8), 1 = single lock).
	// The store gets one shard per scheduler loop up to this cap, so the
	// multi-scheduler agent can drain it concurrently.
	QueueShards int
	// Schedulers is the agent's scheduler concurrency: how many scheduler
	// loops drain the task store. 0 selects min(GOMAXPROCS, QueueShards);
	// 1 reproduces the single-scheduler agent — a one-shard store, and with
	// it strict push-order FIFO dispatch — exactly. With more than one
	// scheduler, each loop drains a preferred store shard and work-steals
	// from the next non-empty one; per-shard FIFO survives, cross-shard
	// order does not (see docs/api.md for the ordering contract).
	Schedulers int
	// Live, when non-nil, is the run's mutable knob handle shared with the
	// EnTK core: the agent spawns Live.Schedulers() scheduler loops, and
	// store pulls are bounded by the live batch knob. When nil the RTS builds
	// a private collapsed-bounds handle from Schedulers and the fixed pull
	// batch, so nothing can ever change — the autotune-off contract.
	Live *tuning.Live
}

// PilotRTS is the pilot-based runtime system implementing core.RTS.
type PilotRTS struct {
	cfg   Config
	model Model
	clock vclock.Clock
	prof  *profiler.Profiler

	pilot saga.Job
	store *store
	agent *agent
	jrn   *journal.Journal
	live  *tuning.Live

	out     core.Outbox
	started bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New builds a PilotRTS from config.
func New(cfg Config) (*PilotRTS, error) {
	r, err := newPilot(cfg)
	if err == nil {
		r.out.Init(4096)
	}
	return r, err
}

// newPilot builds a PilotRTS whose Outbox is not yet readied: New Inits it,
// a Composite joins it to its own.
func newPilot(cfg Config) (*PilotRTS, error) {
	if cfg.Clock == nil {
		return nil, errors.New("rts: config requires a clock")
	}
	if cfg.Session == nil {
		return nil, errors.New("rts: config requires a SAGA session")
	}
	if cfg.Registry == nil {
		return nil, errors.New("rts: config requires a workload registry")
	}
	model := cfg.Model
	if model.Name == "" {
		model = ModelForCI(cfg.Resource.Resource)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Prof == nil {
		cfg.Prof = profiler.New()
	}
	r := &PilotRTS{
		cfg:   cfg,
		model: model,
		clock: cfg.Clock,
		prof:  cfg.Prof,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	return r, nil
}

// Start implements core.RTS: the PilotManager submits the pilot job through
// SAGA; once the pilot becomes active, the Agent bootstraps and begins
// pulling tasks from the store.
func (r *PilotRTS) Start(ctx context.Context) error {
	if r.started {
		return errors.New("rts: already started")
	}
	r.started = true
	if r.cfg.StorePath != "" {
		j, err := journal.Open(r.cfg.StorePath, journal.Options{})
		if err != nil {
			return err
		}
		r.jrn = j
	}
	// The live knob handle: shared with the EnTK core when injected, or a
	// private collapsed-bounds one (fixed pull batch, fixed pool) otherwise.
	// The agent spawns the knob's fixed pool of scheduler loops. The store
	// gets one shard per loop, capped at QueueShards, so no shard is
	// reachable only by stealing and a lone loop drains a one-shard store
	// in strict push order.
	shards := r.cfg.QueueShards
	if shards == 0 {
		shards = broker.DefaultShards()
	}
	r.live = r.cfg.Live
	if r.live == nil {
		r.live = tuning.Fixed(schedulerPullBatch, tuning.Schedulers(r.cfg.Schedulers, shards))
	}
	r.store = newStore(r.jrn, min(shards, r.live.Schedulers()))

	res := r.cfg.Resource
	pilot, err := r.cfg.Session.Submit(res.Resource, saga.JobDescription{
		Name:     "pilot." + res.Resource,
		Cores:    res.Cores,
		Walltime: res.Walltime,
	})
	if err != nil {
		return fmt.Errorf("rts: pilot submission: %w", err)
	}
	r.pilot = pilot
	r.agent = newAgent(r, res.Cores, res.GPUs, r.live.Schedulers())

	// Both goroutines are Outbox producers, so Stop waits for them, and both
	// end once it begins: a torn-down RTS neither boots nor charges.
	r.out.Go(func() {
		select {
		case <-pilot.Active():
		case <-pilot.Done():
			return // pilot died in the queue
		case <-r.out.Stopping():
			return
		}
		// Agent bootstrap (Fig 3, arrow 3). Modelled costs are accounted
		// exactly, keeping overhead figures noise-free at any clock scale.
		if !vclock.SleepOrStop(r.clock, r.model.BootstrapTime, r.out.Stopping()) {
			return
		}
		r.prof.Add(profiler.RTSOverhead, r.model.BootstrapTime)
		r.agent.run()
	})
	r.out.Go(func() {
		// A pilot that dies (walltime, CI failure) kills the RTS.
		select {
		case <-pilot.Done():
			if pilot.State() == saga.StateFailed {
				r.out.Kill()
			}
		case <-r.out.Stopping():
		}
	})
	return nil
}

// noteStoreFailure kills the RTS when the store closed because of a
// journaling failure: the audit loss surfaces as an RTS death — EnTK's
// heartbeat tears the instance down and resubmits the lost tasks — instead
// of a silently dropped record.
func (r *PilotRTS) noteStoreFailure() {
	if r.store != nil && r.store.Err() != nil {
		r.out.Kill()
	}
}

// Submit implements core.RTS: the UnitManager schedules tasks to the agent
// via the store, charging the DB round-trip costs.
func (r *PilotRTS) Submit(tasks []core.TaskDescription) error {
	if !r.started {
		return errors.New("rts: not started")
	}
	if r.out.Stopped() {
		return errors.New("rts: stopped")
	}
	cost := r.model.SubmitBatchCost + time.Duration(len(tasks))*r.model.SubmitPerTask
	if cost > 0 {
		r.clock.Sleep(cost)
		r.prof.Add(profiler.RTSOverhead, cost)
	}
	if err := r.store.Push(tasks); err != nil {
		return err
	}
	r.out.Submitted(len(tasks))
	return nil
}

// Completions implements core.RTS.
func (r *PilotRTS) Completions() <-chan core.TaskResult { return r.out.Completions() }

// Alive implements core.RTS.
func (r *PilotRTS) Alive() bool { return !r.out.Dead() }

// deliver pushes one result through the outbox, then applies the injected
// crash.
func (r *PilotRTS) deliver(res core.TaskResult) {
	if r.out.Deliver(res) {
		if n := r.cfg.Faults.CrashAfterCompletions; n > 0 && r.out.Completed() >= int64(n) {
			r.out.Kill()
		}
	}
}

// sampleTaskFault draws an injected unconditional task failure.
func (r *PilotRTS) sampleTaskFault() bool {
	p := r.cfg.Faults.TaskFailureProb
	if p <= 0 {
		return false
	}
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.rng.Float64() < p
}

// Stop implements core.RTS: cancel the pilot, stop the agent, charge the
// tear-down cost and close the completion channel.
func (r *PilotRTS) Stop() error {
	r.out.Stop(func() {
		if r.pilot != nil {
			r.pilot.Complete() //nolint:errcheck // pilot shuts itself down
		}
		if r.store != nil {
			r.store.Close()
		}
		if r.agent != nil {
			r.agent.stopAndWait()
		}
		if r.model.TeardownTime > 0 {
			r.clock.Sleep(r.model.TeardownTime)
			r.prof.Add(profiler.RTSTeardown, r.model.TeardownTime)
		}
		if r.jrn != nil {
			r.jrn.Close()
		}
	})
	return nil
}

// StoreStats reports the task store's QueueStats-style counters (per-shard
// depths, push/pull/steal tallies) merged with the agent's per-scheduler
// pull and dispatch counts: the Store part of Stats.
func (r *PilotRTS) StoreStats() core.StoreStats {
	var st core.StoreStats
	if r.store != nil {
		st = r.store.stats()
	}
	if r.agent != nil {
		st.Schedulers = r.agent.schedulers
		st.SchedulerPulls, st.SchedulerDispatches, st.SchedulerBusy = r.agent.schedulerStats()
	}
	return st
}

// Stats implements core.RTS: the task counters, the pilot occupancy as seen
// by the agent's scheduler (total minus free cores/GPUs; before the agent
// bootstraps, the pilot is idle) and the store's counters.
func (r *PilotRTS) Stats() core.RTSStats {
	st := core.RTSStats{
		PilotsSubmitted: 1,
		Utilization: core.Utilization{
			CoresTotal: r.cfg.Resource.Cores,
			GPUsTotal:  r.cfg.Resource.GPUs,
		},
		Store: r.StoreStats(),
	}
	r.out.Count(&st)
	if r.agent != nil {
		st.Utilization.CoresBusy = st.Utilization.CoresTotal - r.agent.FreeCores()
		st.Utilization.GPUsBusy = st.Utilization.GPUsTotal - r.agent.FreeGPUs()
	}
	return st
}

// Factory returns a core.RTSFactory that builds a PilotRTS per call with
// the given base configuration; the resource description comes from EnTK.
func Factory(base Config) core.RTSFactory {
	return func(res core.ResourceDesc) (core.RTS, error) {
		cfg := base
		cfg.Resource = res
		return New(cfg)
	}
}
