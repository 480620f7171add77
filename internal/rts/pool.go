package rts

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// ErrPoolSaturated is returned by Pool.Admit when the core ledger has no
// capacity left for the requested lease. The caller (the daemon's admission
// control) decides whether to queue the submission or reject it.
var ErrPoolSaturated = errors.New("rts: pool saturated: no core capacity for lease")

// QuotaError is returned by Pool.Admit when a tenant's per-tenant core quota
// would be exceeded. Unlike ErrPoolSaturated it does not clear when other
// tenants release leases, so admission queues must not wait on it.
type QuotaError struct {
	Tenant    string
	Requested int
	InUse     int
	Quota     int
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("rts: tenant %q quota exceeded: %d cores requested, %d in use, quota %d",
		e.Tenant, e.Requested, e.InUse, e.Quota)
}

// TenantLimits configures one tenant's share of the pool: Weight drives the
// stride scheduler's dispatch ratio (a weight-3 tenant is dispatched 3 tasks
// for every 1 of a weight-1 tenant while both have backlog); MaxCores caps
// the tenant's concurrently claimed lease cores (0 = unlimited).
type TenantLimits struct {
	Weight   int
	MaxCores int
}

// PoolConfig assembles a shared pilot pool.
type PoolConfig struct {
	// Base is the inner PilotRTS configuration; Base.Resource is the one
	// shared pilot every lease draws from.
	Base Config
	// MaxClaimFactor scales the admission capacity relative to the pilot's
	// physical cores: capacity = Cores x MaxClaimFactor. A factor above 1
	// overcommits claims (leases are admitted faster than the pilot can run
	// them; the per-lease dispatch window still bounds concurrency), a
	// factor of exactly 1 (the default) makes admission track the physical
	// ledger.
	MaxClaimFactor float64
	// Tenants maps tenant names to their limits. Unknown tenants default to
	// weight 1, unlimited cores.
	Tenants map[string]TenantLimits
	// TraceDispatch records the tenant of every dispatched task in order,
	// for fairness tests and debugging. Off by default: the trace grows
	// without bound.
	TraceDispatch bool
}

// poolEntry is one task queued behind a tenant, waiting for the stride
// scheduler to dispatch it into the shared pilot.
type poolEntry struct {
	lease *Lease
	desc  core.TaskDescription
}

// leaseCompletionCap bounds a lease's completion channel (what
// core.DrainCompletions takes in one drain).
const leaseCompletionCap = 256

// strideK is the stride scheduling constant: a tenant's pass advances by
// strideK/weight per dispatch, so relative dispatch rates converge to the
// weight ratio.
const strideK = 1 << 20

// poolTenant is the per-tenant scheduling state.
type poolTenant struct {
	name     string
	weight   int
	maxCores int
	pass     uint64
	claimed  int // lease cores currently claimed
	queue    []poolEntry
}

// dispatchRec tracks one in-flight task so its completion can be routed back
// to the owning lease and its cores returned to the lease window.
type dispatchRec struct {
	lease *Lease
	cores int
}

// Pool multiplexes many runs over one shared PilotRTS. Each run holds a
// Lease — an admission claim of N cores plus a core.RTS facade — and the
// pool's stride scheduler dispatches queued tasks across tenants in weight
// proportion, gated by each lease's claim window. Admission (Admit) checks
// the tenant quota, then the shared core ledger; completions are routed back
// to the submitting lease by a run-scoped UID prefix.
type Pool struct {
	cfg      PoolConfig
	inner    *PilotRTS
	capacity int

	mu          sync.Mutex
	cond        *sync.Cond // wakes the feeder: new work, freed window, close
	tenants     map[string]*poolTenant
	leases      map[int64]*Lease
	claimed     int
	nextSeq     int64
	closed      bool
	outstanding map[string]dispatchRec // prefixed UID -> route
	inflight    int                    // cores dispatched to the pilot, not yet completed
	trace       []string
	holdUntil   map[string]int // tenant -> queued backlog that lifts the dispatch hold

	releases chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// NewPool builds a pool around one shared pilot.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.MaxClaimFactor == 0 {
		cfg.MaxClaimFactor = 1.0
	}
	if cfg.MaxClaimFactor < 1.0 {
		return nil, fmt.Errorf("rts: MaxClaimFactor %v below 1 would strand pilot cores", cfg.MaxClaimFactor)
	}
	inner, err := New(cfg.Base)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:         cfg,
		inner:       inner,
		capacity:    int(float64(cfg.Base.Resource.Cores) * cfg.MaxClaimFactor),
		tenants:     make(map[string]*poolTenant),
		leases:      make(map[int64]*Lease),
		outstanding: make(map[string]dispatchRec),
		releases:    make(chan struct{}, 1),
	}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// Start boots the shared pilot and the pool's dispatch machinery.
func (p *Pool) Start(ctx context.Context) error {
	if err := p.inner.Start(ctx); err != nil {
		p.inner.Stop() //nolint:errcheck // release what the failed Start acquired
		return err
	}
	p.wg.Add(2)
	go p.feeder()
	go p.router()
	return nil
}

// Stop tears the pool down: the feeder and router exit, the inner pilot is
// canceled, and every live lease's completion channel is closed. Leases
// still held by runs observe Alive()==false afterwards.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		leases := make([]*Lease, 0, len(p.leases))
		for _, l := range p.leases {
			leases = append(leases, l)
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		p.inner.Stop() //nolint:errcheck // PilotRTS.Stop never fails
		for _, l := range leases {
			l.Stop() //nolint:errcheck // Lease.Stop never fails
		}
		p.wg.Wait()
	})
}

// Alive reports whether the shared pilot is healthy.
func (p *Pool) Alive() bool { return p.inner.Alive() }

// PhysicalCores is the shared pilot's real core count — the hard upper bound
// on any single lease (a claim larger than this can never be admitted, no
// matter how many leases release).
func (p *Pool) PhysicalCores() int { return p.cfg.Base.Resource.Cores }

// Schedulers is how many scheduler loops the shared pilot runs: Base.Schedulers
// resolved, valid once Start returned.
func (p *Pool) Schedulers() int { return p.inner.live.Schedulers() }

// Claimed is the sum of live leases' core claims.
func (p *Pool) Claimed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.claimed
}

// Releases signals (coalesced) every time a lease releases its claim, so an
// admission queue knows to retry Admit.
func (p *Pool) Releases() <-chan struct{} { return p.releases }

// DispatchTrace returns a copy of the tenant-order dispatch log (requires
// PoolConfig.TraceDispatch).
func (p *Pool) DispatchTrace() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.trace...)
}

// HoldUntilQueued makes the feeder dispatch nothing until every tenant in
// backlog has at least that many tasks queued, then lifts the hold for good.
// It replaces any earlier hold; a nil backlog lifts it at once. Tests call
// it before submitting, so that every tenant is backlogged from dispatch 0
// whatever order and pace the submissions arrive in, and a DispatchTrace
// prefix is comparable to the weights.
func (p *Pool) HoldUntilQueued(backlog map[string]int) {
	p.mu.Lock()
	p.holdUntil = backlog
	p.cond.Broadcast()
	p.mu.Unlock()
}

// LeaseSpec is one run's resource claim against the pool.
type LeaseSpec struct {
	Tenant string
	Cores  int
	GPUs   int
}

// Admit claims Cores from the shared ledger for one run and returns the
// lease. The tenant quota is checked first (QuotaError is permanent for the
// current claim set of that tenant), then the shared ledger
// (ErrPoolSaturated clears when any lease releases — wait on Releases).
func (p *Pool) Admit(spec LeaseSpec) (*Lease, error) {
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("rts: pool stopped")
	}
	t := p.tenantLocked(spec.Tenant)
	if t.maxCores > 0 && t.claimed+spec.Cores > t.maxCores {
		return nil, &QuotaError{Tenant: spec.Tenant, Requested: spec.Cores, InUse: t.claimed, Quota: t.maxCores}
	}
	if p.claimed+spec.Cores > p.capacity {
		return nil, ErrPoolSaturated
	}
	p.nextSeq++
	var pbuf [24]byte
	prefix := append(strconv.AppendInt(append(pbuf[:0], 'L'), p.nextSeq, 10), '|')
	l := &Lease{
		pool:   p,
		seq:    p.nextSeq,
		tenant: spec.Tenant,
		cores:  spec.Cores,
		gpus:   spec.GPUs,
		prefix: string(prefix),
	}
	// The claim window admits at most Cores one-core tasks to the pilot at a
	// time, so that many results can be waiting for the run at once; the
	// pump's buffer takes any excess. (A flat 256 slots is 26 KB per lease,
	// most of what a 16-task run costs.)
	l.out.Init(min(spec.Cores, leaseCompletionCap))
	l.qcond.L = &l.qmu
	t.claimed += spec.Cores
	p.claimed += spec.Cores
	p.leases[l.seq] = l
	l.out.Go(l.pump)
	return l, nil
}

// tenantLocked resolves (or lazily creates) a tenant. A newly seen tenant
// starts at the minimum live pass so it cannot monopolize the scheduler by
// arriving late with pass 0.
func (p *Pool) tenantLocked(name string) *poolTenant {
	if t, ok := p.tenants[name]; ok {
		return t
	}
	lim := p.cfg.Tenants[name]
	if lim.Weight <= 0 {
		lim.Weight = 1
	}
	t := &poolTenant{name: name, weight: lim.Weight, maxCores: lim.MaxCores}
	var minPass uint64
	first := true
	for _, o := range p.tenants {
		if first || o.pass < minPass {
			minPass = o.pass
			first = false
		}
	}
	t.pass = minPass
	p.tenants[name] = t
	return t
}

// pickLocked selects the next dispatchable entry under stride scheduling:
// among tenants whose head-of-queue task fits its lease's claim window, the
// one with the minimum pass wins (ties broken by name for determinism). It
// pops the entry, advances the tenant's pass, charges the lease window and
// registers the outstanding route. Returns false when nothing is
// dispatchable right now.
func (p *Pool) pickLocked() (core.TaskDescription, bool) {
	for name, n := range p.holdUntil {
		if t := p.tenants[name]; t == nil || len(t.queue) < n {
			return core.TaskDescription{}, false
		}
	}
	p.holdUntil = nil
	var best *poolTenant
	for _, t := range p.tenants {
		if len(t.queue) == 0 {
			continue
		}
		head := t.queue[0]
		if head.lease.window+head.desc.Cores > head.lease.cores {
			continue // lease claim fully occupied; wait for a completion
		}
		// Gate on the pilot's physical cores as well: holding the backlog
		// here (instead of flooding the pilot store) is what makes dispatch
		// order — and with it the stride weights — determine service order.
		if p.inflight+head.desc.Cores > p.cfg.Base.Resource.Cores {
			continue
		}
		if best == nil || t.pass < best.pass || (t.pass == best.pass && t.name < best.name) {
			best = t
		}
	}
	if best == nil {
		return core.TaskDescription{}, false
	}
	e := best.queue[0]
	best.queue = best.queue[1:]
	best.pass += strideK / uint64(best.weight)
	e.lease.window += e.desc.Cores
	p.inflight += e.desc.Cores
	p.outstanding[e.desc.UID] = dispatchRec{lease: e.lease, cores: e.desc.Cores}
	if p.cfg.TraceDispatch {
		p.trace = append(p.trace, best.name)
	}
	return e.desc, true
}

// feeder is the weighted-fair dispatcher: it drains dispatchable entries in
// stride order and submits them to the shared pilot in batches. Submission
// happens outside the pool lock (the inner Submit charges modelled DB
// round-trip time on the virtual clock).
func (p *Pool) feeder() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		var batch []core.TaskDescription
		for {
			desc, ok := p.pickLocked()
			if !ok {
				break
			}
			batch = append(batch, desc)
		}
		if len(batch) > 0 {
			p.mu.Unlock()
			err := p.inner.Submit(batch)
			p.mu.Lock()
			if err != nil {
				// The inner pilot refused work (stopped or store failure):
				// the pool is no longer serviceable. Leases observe
				// Alive()==false via the inner RTS and runs fail over.
				p.failBatchLocked(batch)
			}
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.cond.Wait()
	}
}

// failBatchLocked unwinds the accounting of a batch the inner pilot
// rejected: outstanding routes are dropped and lease windows refunded, so
// the claims stay consistent.
func (p *Pool) failBatchLocked(batch []core.TaskDescription) {
	for _, d := range batch {
		rec, ok := p.outstanding[d.UID]
		if !ok {
			continue
		}
		delete(p.outstanding, d.UID)
		rec.lease.window -= rec.cores
		p.inflight -= rec.cores
	}
}

// router drains the shared pilot's completions and hands each one to its
// lease, stripping the routing prefix. It exits when the inner RTS closes
// its channel (pool stop or pilot death).
func (p *Pool) router() {
	defer p.wg.Done()
	for res := range p.inner.Completions() {
		p.route(res)
	}
}

// route returns the task's cores to the lease window, wakes the feeder and
// delivers the (de-prefixed) result to the lease's pump.
func (p *Pool) route(res core.TaskResult) {
	p.mu.Lock()
	rec, ok := p.outstanding[res.UID]
	if !ok {
		// The lease was released: its run abandoned the task.
		p.mu.Unlock()
		return
	}
	delete(p.outstanding, res.UID)
	rec.lease.window -= rec.cores
	p.inflight -= rec.cores
	p.cond.Broadcast()
	lease := rec.lease
	p.mu.Unlock()
	if i := strings.IndexByte(res.UID, '|'); i >= 0 {
		res.UID = res.UID[i+1:]
	}
	lease.enqueue(res)
}

// release returns a lease's claim to the ledger, discards its queued (not
// yet dispatched) tasks, and signals admission waiters. In-flight tasks
// keep running on the pilot; their completions are dropped.
func (p *Pool) release(l *Lease) {
	p.mu.Lock()
	t := p.tenants[l.tenant]
	if _, live := p.leases[l.seq]; live {
		delete(p.leases, l.seq)
		t.claimed -= l.cores
		p.claimed -= l.cores
	}
	kept := t.queue[:0]
	for _, e := range t.queue {
		if e.lease != l {
			kept = append(kept, e)
		}
	}
	t.queue = kept
	p.cond.Broadcast()
	p.mu.Unlock()
	select {
	case p.releases <- struct{}{}:
	default:
	}
}

// Lease is one run's claim on the shared pool, exposed to the run as its
// core.RTS: Submit queues tasks behind the run's tenant, completions arrive
// on a per-lease channel, and Stop releases the claim. A lease is
// single-run: Start is a no-op because the shared pilot is already up.
type Lease struct {
	pool   *Pool
	seq    int64
	tenant string
	cores  int
	gpus   int
	prefix string
	out    core.Outbox // stopped = revoked

	qmu   sync.Mutex
	qcond sync.Cond // on qmu
	qbuf  []core.TaskResult
	qdone bool

	window int // cores dispatched but not completed; guarded by pool.mu
}

// Start implements core.RTS. The shared pilot is already running, so a
// lease start only verifies the pool is still serviceable.
func (l *Lease) Start(ctx context.Context) error {
	if l.out.Stopped() {
		return errors.New("rts: lease revoked")
	}
	if !l.pool.Alive() {
		return errors.New("rts: pool pilot dead")
	}
	return nil
}

// Submit implements core.RTS: tasks are queued behind the lease's tenant
// with a run-scoped UID prefix; the pool's stride scheduler dispatches them
// into the shared pilot as the claim window allows.
func (l *Lease) Submit(tasks []core.TaskDescription) error {
	if l.out.Stopped() {
		return errors.New("rts: lease revoked")
	}
	p := l.pool
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("rts: pool stopped")
	}
	t := p.tenants[l.tenant]
	for _, d := range tasks {
		d.UID = l.prefix + d.UID
		if d.Cores <= 0 {
			d.Cores = 1
		}
		if d.Cores > l.cores {
			p.mu.Unlock()
			return fmt.Errorf("rts: task %s needs %d cores, lease claims %d", d.UID, d.Cores, l.cores)
		}
		t.queue = append(t.queue, poolEntry{lease: l, desc: d})
	}
	l.out.Submitted(len(tasks))
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// Completions implements core.RTS. The channel closes on Stop.
func (l *Lease) Completions() <-chan core.TaskResult { return l.out.Completions() }

// Alive implements core.RTS: healthy while the shared pilot lives and the
// lease has not been revoked (Revoke or Stop).
func (l *Lease) Alive() bool { return !l.out.Stopped() && l.pool.Alive() }

// Revoke marks the lease dead and releases its claim without the run's
// cooperation — the daemon's lever against a lease that outlived its run.
// A run still using it sees Alive()==false on its heartbeat and fails over.
func (l *Lease) Revoke() { l.doStop() }

// Stop implements core.RTS: release the claim, drop queued tasks, and close
// the completion channel once the pump has exited. Idempotent.
func (l *Lease) Stop() error {
	l.doStop()
	return nil
}

func (l *Lease) doStop() {
	l.out.Stop(func() {
		l.qmu.Lock()
		l.qdone = true
		l.qcond.Signal()
		l.qmu.Unlock()
		l.pool.release(l)
	})
}

// enqueue hands one routed completion to the lease pump. Results arriving
// after Stop are dropped (the run is gone; the pool already counted the
// ledger side).
func (l *Lease) enqueue(res core.TaskResult) {
	l.qmu.Lock()
	if l.qdone {
		l.qmu.Unlock()
		return
	}
	l.qbuf = append(l.qbuf, res)
	l.qcond.Signal()
	l.qmu.Unlock()
}

// pump moves routed completions from the unbounded buffer onto the lease's
// completion channel. The intermediate buffer keeps the pool router from
// ever blocking on a slow or departed run: delivery blocks here, in a
// per-lease goroutine that Stop can always interrupt.
func (l *Lease) pump() {
	for {
		l.qmu.Lock()
		for len(l.qbuf) == 0 && !l.qdone {
			l.qcond.Wait()
		}
		if len(l.qbuf) == 0 {
			l.qmu.Unlock()
			return
		}
		res := l.qbuf[0]
		l.qbuf = l.qbuf[1:]
		l.qmu.Unlock()
		if !l.out.Deliver(res) {
			return
		}
	}
}

// Stats implements core.RTS: the lease's own task counters (the pilot
// belongs to the pool, so PilotsSubmitted is 0), the shared pilot's occupancy
// — all tenants combined — scoped to this lease's claim, and the shared
// pilot's store counters (one store serves every lease).
func (l *Lease) Stats() core.RTSStats {
	pilot := l.pool.inner.Stats()
	st := core.RTSStats{
		Utilization: core.Utilization{
			CoresTotal: l.cores,
			CoresBusy:  min(pilot.Utilization.CoresBusy, l.cores),
			GPUsTotal:  l.gpus,
			GPUsBusy:   min(pilot.Utilization.GPUsBusy, l.gpus),
		},
		Store: pilot.Store,
	}
	l.out.Count(&st)
	return st
}
