// Package daemon implements entkd: a long-lived service hosting many
// concurrent EnTK runs over one shared broker and one shared pilot pool.
//
// Each submission becomes a run-scoped core.AppManager wired into the
// daemon's shared infrastructure: queues are namespaced "run.<id>.<queue>"
// on the shared broker, and the run's RTS is a lease on the shared pilot
// pool (internal/rts.Pool) instead of a private pilot. Admission control
// gates submissions on the pool's core ledger — saturated submissions queue
// (bounded) or are rejected with ErrAdmissionRejected — and a background
// reconciler garbage-collects leaked leases and terminal runs. See
// docs/daemon.md.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appjson"
	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/hpc"
	"repro/internal/rts"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// ErrAdmissionRejected is returned by Submit when a run cannot be admitted
// and will never be: the claim exceeds the pilot's physical cores, the
// tenant's quota is exhausted, or the bounded admission queue is full.
// Saturation with queue space available is not a rejection — the run is
// accepted in state StateQueued instead.
var ErrAdmissionRejected = errors.New("daemon: admission rejected")

// Run lifecycle states as reported by List/Info.
const (
	StateQueued   = "QUEUED"   // admitted to the admission queue, awaiting cores
	StateRunning  = "RUNNING"  // lease claimed, AppManager executing
	StateDone     = "DONE"     // finished successfully
	StateFailed   = "FAILED"   // finished with an error
	StateCanceled = "CANCELED" // canceled (before or during execution)
)

// TenantConfig is one tenant's fairness weight and core quota.
type TenantConfig struct {
	// Weight is the stride-scheduling dispatch weight (default 1).
	Weight int
	// MaxCores caps the tenant's concurrently leased cores (0 = unlimited).
	MaxCores int
}

// Config assembles a daemon.
type Config struct {
	// SocketPath is the unix socket the server listens on (Serve).
	SocketPath string
	// Resource is the shared pilot: a catalogued CI name plus size. All
	// hosted runs draw cores from this one pilot, whose Walltime defaults to
	// the CI's cap.
	Resource string
	Cores    int
	GPUs     int
	Walltime time.Duration
	// TimeScale is the shared virtual clock's wall cost per virtual second
	// (default 1ms), common to the pool and every hosted run.
	TimeScale time.Duration
	// Tenants configures fairness weights and quotas; unknown tenants
	// default to weight 1, no quota.
	Tenants map[string]TenantConfig
	// OvercommitFactor scales lease admission past the pilot's physical
	// cores (default 1.0 = admission tracks the physical ledger).
	OvercommitFactor float64
	// AdmissionQueueLen bounds the queue of saturated submissions waiting
	// for cores (default 16; 0 uses the default, negative disables queueing
	// so every saturated submission is rejected).
	AdmissionQueueLen int
	// ReconcileEvery is the reconciler's wall-clock cadence (default 1s).
	ReconcileEvery time.Duration
	// RunRetention is how long terminal runs stay visible in List/Attach
	// before the reconciler prunes them (default 1h).
	RunRetention time.Duration
	// JournalRoot is the directory under which journaled runs get their
	// per-run journal directory (<JournalRoot>/<runID>). Required only when
	// a submission asks for a journal.
	JournalRoot string
	// SchedulerWorkers is the shared pilot's scheduler concurrency (same
	// semantics as entk.Tuning.SchedulerWorkers); every hosted run reports
	// the count the pool resolved.
	SchedulerWorkers int
	// Model overrides the pool's RTS cost model (zero value = per-CI
	// default; tests use rts.FastModel()).
	Model rts.Model
	// TraceDispatch records the pool's tenant dispatch order (fairness
	// tests; unbounded, keep off in service use).
	TraceDispatch bool
	// Seed drives stochastic models.
	Seed int64
}

// terminal reports whether a run in this state is over.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// runEntry is one hosted run. The first block is the summary List, Info,
// Wait and Snapshot answer from, and all that is kept of a terminal run for
// RunRetention; the second is what the run executes with, which finishRun
// lets go of (a retained AppManager and lease were 55 KB per 16-task run).
type runEntry struct {
	id     string
	tenant string
	state  string // guarded by Daemon.mu
	claim  int
	err    error           // guarded by Daemon.mu once terminal
	doneAt time.Time       // wall time the run turned terminal
	tasks  core.TaskCounts // the run's tally as it turned terminal
	doneCh chan struct{}

	journal string // per-run journal directory ("" = none)
	app     *appjson.App
	am      *core.AppManager
	run     *core.Run
	// lease outlives the rest only while it still reports Alive — a run that
	// ended without returning it — so that the reconciler can revoke it.
	lease *rts.Lease
}

// Daemon hosts concurrent runs over shared infrastructure.
type Daemon struct {
	cfg      Config
	clock    vclock.Clock
	machine  *rts.Machine
	host     *hostmodel.Model
	registry *workload.Registry
	brk      *broker.Broker
	pool     *rts.Pool
	// ended is a closed event bus: subscribing to it yields the stream of a
	// run that is over — no events, channel already closed.
	ended *core.EventBus

	mu     sync.Mutex
	runs   map[string]*runEntry
	order  []string
	admitQ []*runEntry
	nextID int
	closed bool

	leaked   atomic.Int64 // leases force-released by the reconciler
	kickCh   chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New assembles and starts the daemon's shared infrastructure: clock,
// simulated CI, SAGA session, shared broker, and the pilot pool (the pilot
// is submitted immediately). The socket server is separate — call Serve.
func New(cfg Config) (*Daemon, error) {
	if cfg.Resource == "" {
		return nil, errors.New("daemon: config requires a resource name")
	}
	if cfg.Cores <= 0 {
		return nil, errors.New("daemon: config requires a positive core count")
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = time.Millisecond
	}
	if cfg.Walltime <= 0 {
		spec, err := hpc.LookupSpec(cfg.Resource)
		if err != nil {
			return nil, err
		}
		cfg.Walltime = spec.MaxWalltime
	}
	if cfg.ReconcileEvery <= 0 {
		cfg.ReconcileEvery = time.Second
	}
	if cfg.RunRetention <= 0 {
		cfg.RunRetention = time.Hour
	}
	if cfg.AdmissionQueueLen == 0 {
		cfg.AdmissionQueueLen = 16
	}

	clock := vclock.NewScaled(cfg.TimeScale)
	machine, err := rts.NewMachine(rts.MachineConfig{
		Clock: clock,
		Seed:  cfg.Seed,
		Resources: []core.ResourceDesc{{
			Resource: cfg.Resource, Cores: cfg.Cores, GPUs: cfg.GPUs, Walltime: cfg.Walltime,
		}},
	})
	if err != nil {
		return nil, err
	}

	tenants := make(map[string]rts.TenantLimits, len(cfg.Tenants))
	for name, tc := range cfg.Tenants {
		tenants[name] = rts.TenantLimits{Weight: tc.Weight, MaxCores: tc.MaxCores}
	}
	registry := workload.NewRegistry()
	pool, err := rts.NewPool(rts.PoolConfig{
		Base: rts.Config{
			Resource:   machine.Resources[0],
			Clock:      clock,
			Session:    machine.Session,
			Registry:   registry,
			FS:         machine.FS,
			Model:      cfg.Model,
			Seed:       cfg.Seed,
			Schedulers: cfg.SchedulerWorkers,
		},
		MaxClaimFactor: cfg.OvercommitFactor,
		Tenants:        tenants,
		TraceDispatch:  cfg.TraceDispatch,
	})
	if err != nil {
		machine.Close()
		return nil, err
	}
	if err := pool.Start(context.Background()); err != nil {
		machine.Close()
		return nil, err
	}
	cfg.SchedulerWorkers = pool.Schedulers()

	d := &Daemon{
		cfg:      cfg,
		clock:    clock,
		machine:  machine,
		host:     hostmodel.ForCI(cfg.Resource),
		registry: registry,
		brk:      broker.New(broker.Options{}),
		pool:     pool,
		ended:    core.NewEventBus(),
		runs:     make(map[string]*runEntry),
		kickCh:   make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	d.ended.Close()
	d.wg.Add(2)
	go d.admitLoop()
	go d.reconcileLoop()
	return d, nil
}

// Submit parses an appjson document and admits it as a new run: immediately
// when the pool has capacity, queued (StateQueued) when the pool is
// saturated and the admission queue has room, or rejected with an error
// wrapping ErrAdmissionRejected. The returned run ID is valid either way.
func (d *Daemon) Submit(tenant string, journal bool, appJSON []byte) (string, error) {
	app, err := appjson.Parse(appJSON)
	if err != nil {
		return "", err
	}
	if tenant == "" {
		tenant = "default"
	}
	claim := app.Resource.Cores
	if claim > d.pool.PhysicalCores() {
		return "", fmt.Errorf("%w: claim of %d cores exceeds the shared pilot's %d",
			ErrAdmissionRejected, claim, d.pool.PhysicalCores())
	}
	var jdir string
	if journal {
		if d.cfg.JournalRoot == "" {
			return "", errors.New("daemon: journaled run requested but no JournalRoot configured")
		}
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return "", errors.New("daemon: stopped")
	}
	d.nextID++
	var id [24]byte
	e := &runEntry{
		id:     string(core.AppendPadded(append(id[:0], "run."...), uint64(d.nextID), 4)),
		tenant: tenant,
		claim:  claim,
		app:    app,
		doneCh: make(chan struct{}),
	}
	if journal {
		jdir = filepath.Join(d.cfg.JournalRoot, e.id)
		e.journal = jdir
	}
	lease, err := d.pool.Admit(rts.LeaseSpec{RunID: e.id, Tenant: tenant, Cores: claim, GPUs: app.Resource.GPUs})
	switch {
	case err == nil:
		e.lease = lease
		e.state = StateRunning
	case errors.Is(err, rts.ErrPoolSaturated):
		if len(d.admitQ) >= d.cfg.AdmissionQueueLen || d.cfg.AdmissionQueueLen < 0 {
			d.mu.Unlock()
			return "", fmt.Errorf("%w: pool saturated and admission queue full", ErrAdmissionRejected)
		}
		e.state = StateQueued
		d.admitQ = append(d.admitQ, e)
	default:
		var qe *rts.QuotaError
		d.mu.Unlock()
		if errors.As(err, &qe) {
			return "", fmt.Errorf("%w: %v", ErrAdmissionRejected, err)
		}
		return "", err
	}
	d.runs[e.id] = e
	d.order = append(d.order, e.id)
	d.mu.Unlock()

	if e.state == StateRunning {
		if err := d.startRun(e); err != nil {
			return e.id, err
		}
	}
	return e.id, nil
}

// startRun builds the run-scoped AppManager over the shared broker and the
// admitted lease, and launches it. On failure the lease is released and the
// run turns FAILED.
func (d *Daemon) startRun(e *runEntry) error {
	app, lease := e.app, e.lease // the entry lets go of both when it finishes
	fail := func(err error) error {
		lease.Stop() //nolint:errcheck // Lease.Stop never fails
		d.finishRun(e, StateFailed, err)
		return err
	}
	pipes, _, err := app.Build()
	if err != nil {
		return fail(err)
	}
	am, err := core.NewAppManager(core.Config{
		Clock:            d.clock,
		Host:             d.host,
		Broker:           d.brk,
		QueuePrefix:      e.id + ".",
		JournalDir:       e.journal,
		TaskRetries:      app.TaskRetries,
		RTSRestarts:      0, // a lease is not renewable; restart = run failure
		SchedulerWorkers: d.cfg.SchedulerWorkers,
	})
	if err != nil {
		return fail(err)
	}
	am.SetResource(core.ResourceDesc{
		Resource: d.cfg.Resource,
		Cores:    e.claim,
		GPUs:     app.Resource.GPUs,
		Walltime: app.Walltime(),
	})
	var issued atomic.Bool
	am.SetRTSFactory(func(core.ResourceDesc) (core.RTS, error) {
		if !issued.CompareAndSwap(false, true) {
			return nil, errors.New("daemon: pool lease is single-issue (no RTS restarts)")
		}
		return lease, nil
	})
	if err := am.AddPipelines(pipes...); err != nil {
		return fail(err)
	}
	run, err := am.Start(context.Background())
	if err != nil {
		return fail(err)
	}
	d.mu.Lock()
	e.am = am
	e.run = run
	d.mu.Unlock()

	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		err := run.Wait()
		lease.Stop() //nolint:errcheck // Lease.Stop never fails
		state := StateDone
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			state = StateCanceled
		default:
			state = StateFailed
		}
		d.finishRun(e, state, err)
	}()
	return nil
}

// finishRun records a run's terminal state, reduces the entry to its summary
// — the manager, its application and its queues are garbage from here on,
// and so is a lease that was returned — and wakes admission waiters.
func (d *Daemon) finishRun(e *runEntry, state string, err error) {
	d.mu.Lock()
	if terminal(e.state) {
		d.mu.Unlock()
		return
	}
	e.state = state
	e.err = err
	e.doneAt = time.Now()
	if e.am != nil {
		e.tasks = e.am.TaskCounts()
	}
	e.app, e.am, e.run = nil, nil, nil
	if e.lease != nil && !e.lease.Alive() {
		e.lease = nil
	}
	d.mu.Unlock()
	close(e.doneCh)
	d.kick()
}

func (d *Daemon) kick() {
	select {
	case d.kickCh <- struct{}{}:
	default:
	}
}

// admitLoop drains the admission queue in FIFO order whenever a lease
// releases (or a queued run is canceled).
func (d *Daemon) admitLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stopCh:
			return
		case <-d.pool.Releases():
		case <-d.kickCh:
		}
		for {
			d.mu.Lock()
			if len(d.admitQ) == 0 {
				d.mu.Unlock()
				break
			}
			e := d.admitQ[0]
			lease, err := d.pool.Admit(rts.LeaseSpec{
				RunID: e.id, Tenant: e.tenant, Cores: e.claim, GPUs: e.app.Resource.GPUs,
			})
			if err != nil {
				if errors.Is(err, rts.ErrPoolSaturated) {
					d.mu.Unlock()
					break // still no room; wait for the next release
				}
				// Quota or shutdown: this entry can never admit — fail it.
				d.admitQ = d.admitQ[1:]
				d.mu.Unlock()
				d.finishRun(e, StateFailed, fmt.Errorf("%w: %v", ErrAdmissionRejected, err))
				continue
			}
			d.admitQ = d.admitQ[1:]
			e.lease = lease
			e.state = StateRunning
			d.mu.Unlock()
			d.startRun(e) //nolint:errcheck // startRun records failure on the entry
		}
	}
}

// reconcileLoop is the daemon's garbage collector. Invariants it restores on
// every tick: (1) no terminal run holds a live lease — any such lease is
// revoked and counted in LeakedLeases (finishRun keeps a terminal entry's
// lease exactly while it is live, so it is found here); (2) terminal runs
// older than RunRetention are pruned from the run table.
func (d *Daemon) reconcileLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.ReconcileEvery)
	defer t.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-t.C:
			d.reconcile()
		}
	}
}

func (d *Daemon) reconcile() {
	now := time.Now()
	d.mu.Lock()
	var revoke []*rts.Lease
	keep := d.order[:0]
	for _, id := range d.order {
		e := d.runs[id]
		over := terminal(e.state)
		if over && e.lease != nil {
			if e.lease.Alive() {
				revoke = append(revoke, e.lease)
			}
			e.lease = nil
		}
		if over && now.Sub(e.doneAt) > d.cfg.RunRetention {
			delete(d.runs, id)
			continue
		}
		keep = append(keep, id)
	}
	d.order = keep
	d.mu.Unlock()
	for _, l := range revoke {
		l.Revoke()
		d.leaked.Add(1)
	}
	if len(revoke) > 0 {
		d.kick()
	}
}

// LeakedLeases counts leases the reconciler had to force-release because
// their run reached a terminal state without returning them. Zero on a
// healthy shutdown.
func (d *Daemon) LeakedLeases() int64 { return d.leaked.Load() }

// RunInfo is one hosted run's public view.
type RunInfo struct {
	ID     string
	Tenant string
	State  string
	Cores  int
	Err    string
}

// List returns every visible run, oldest first.
func (d *Daemon) List() []RunInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]RunInfo, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.infoLocked(d.runs[id]))
	}
	return out
}

// Info returns one run's view.
func (d *Daemon) Info(id string) (RunInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.runs[id]
	if !ok {
		return RunInfo{}, fmt.Errorf("daemon: unknown run %s", id)
	}
	return d.infoLocked(e), nil
}

func (d *Daemon) infoLocked(e *runEntry) RunInfo {
	info := RunInfo{ID: e.id, Tenant: e.tenant, State: e.state, Cores: e.claim}
	if e.err != nil {
		info.Err = e.err.Error()
	}
	return info
}

// Wait blocks until the run reaches a terminal state and returns its error.
func (d *Daemon) Wait(ctx context.Context, id string) error {
	d.mu.Lock()
	e, ok := d.runs[id]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("daemon: unknown run %s", id)
	}
	select {
	case <-e.doneCh:
	case <-ctx.Done():
		return ctx.Err()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return e.err
}

// Cancel aborts one run. A queued run is removed from the admission queue;
// a running one is canceled through its run handle; canceling a run that is
// already over is a no-op, not an error.
func (d *Daemon) Cancel(id, reason string) error {
	d.mu.Lock()
	e, ok := d.runs[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("daemon: unknown run %s", id)
	}
	if terminal(e.state) {
		d.mu.Unlock()
		return nil
	}
	if e.state == StateQueued {
		for i, q := range d.admitQ {
			if q == e {
				d.admitQ = append(d.admitQ[:i], d.admitQ[i+1:]...)
				break
			}
		}
		d.mu.Unlock()
		d.finishRun(e, StateCanceled, &core.CancelError{Reason: reason})
		return nil
	}
	run, state := e.run, e.state
	d.mu.Unlock()
	if run == nil {
		return fmt.Errorf("daemon: run %s is not cancelable in state %s", id, state)
	}
	run.Cancel(reason)
	return nil
}

// Pause suspends one pipeline of a running run.
func (d *Daemon) Pause(id, pipelineUID string) error {
	run, err := d.liveRun(id)
	if err != nil {
		return err
	}
	return run.Pause(pipelineUID)
}

// Resume reactivates a paused pipeline of a running run.
func (d *Daemon) Resume(id, pipelineUID string) error {
	run, err := d.liveRun(id)
	if err != nil {
		return err
	}
	return run.Resume(pipelineUID)
}

// Subscribe attaches an event subscription to a running run. A run that is
// already over has no more events: its subscription comes back closed.
func (d *Daemon) Subscribe(id string, f core.EventFilter) (*core.EventSub, error) {
	am, _, err := d.view(id)
	if err != nil {
		return nil, err
	}
	if am == nil {
		return d.ended.Subscribe(f), nil
	}
	return am.Subscribe(f), nil
}

// Snapshot returns a run's progress view: the live one while it executes,
// the task tallies it ended with once it is over.
func (d *Daemon) Snapshot(id string) (core.Progress, error) {
	am, ended, err := d.view(id)
	if err != nil {
		return core.Progress{}, err
	}
	if am == nil {
		return core.Progress{
			VTime:         d.clock.Now(),
			TasksTotal:    ended.Total,
			TasksDone:     ended.Done,
			TasksFailed:   ended.Failed,
			TasksCanceled: ended.Canceled,
			TaskAttempts:  ended.Attempts,
		}, nil
	}
	return am.Snapshot(), nil
}

// view resolves a run for reading: its AppManager while it executes, or — am
// nil — the tally it ended with.
func (d *Daemon) view(id string) (am *core.AppManager, ended core.TaskCounts, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.runs[id]
	switch {
	case !ok:
		return nil, ended, fmt.Errorf("daemon: unknown run %s", id)
	case terminal(e.state):
		return nil, e.tasks, nil
	case e.am == nil:
		return nil, ended, fmt.Errorf("daemon: run %s has not started (state %s)", id, e.state)
	}
	return e.am, ended, nil
}

func (d *Daemon) liveRun(id string) (*core.Run, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.runs[id]
	if !ok {
		return nil, fmt.Errorf("daemon: unknown run %s", id)
	}
	if e.run == nil {
		return nil, fmt.Errorf("daemon: run %s is not running (state %s)", id, e.state)
	}
	return e.run, nil
}

// TenantSnapshot exposes the pool's per-tenant counters (List-style
// introspection and tests).
func (d *Daemon) TenantSnapshot() []rts.TenantStats { return d.pool.TenantSnapshot() }

// PoolClaimed exposes the pool ledger's currently claimed cores.
func (d *Daemon) PoolClaimed() int { return d.pool.Claimed() }

// DispatchTrace exposes the pool's tenant dispatch order (requires
// Config.TraceDispatch).
func (d *Daemon) DispatchTrace() []string { return d.pool.DispatchTrace() }

// Stop shuts the daemon down: queued runs are canceled, running ones are
// canceled and awaited, then the pool, broker and simulated CI close. A
// final reconcile pass runs first so LeakedLeases is accurate on exit.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() {
		d.mu.Lock()
		d.closed = true
		ids := make([]string, len(d.order))
		copy(ids, d.order)
		d.mu.Unlock()
		sort.Strings(ids)
		for _, id := range ids {
			d.Cancel(id, "daemon shutdown") //nolint:errcheck // terminal runs are fine
		}
		for _, id := range ids {
			d.mu.Lock()
			e := d.runs[id]
			d.mu.Unlock()
			if e != nil {
				<-e.doneCh
			}
		}
		d.reconcile()
		close(d.stopCh)
		d.wg.Wait()
		d.pool.Stop()
		d.brk.Close()
		d.machine.Close()
	})
}
