package rts

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/profiler"
	"repro/internal/saga"
	"repro/internal/workload"
)

// agent is the pilot-side module (paper Fig 3): a scheduler that places
// tasks on the pilot's cores and an executor that sets up each task's
// environment, stages data and spawns the executable. With schedulers > 1
// the scheduler is a pool of loops draining the sharded store concurrently
// (the multi-scheduler agent); the core/GPU ledger stays shared, so
// resource admission is identical in every configuration.
//
// Executors are reusable goroutines, not one goroutine per task. Each owns a
// one-slot work channel; when its task ends it returns the cores and parks
// that channel on the idle list in the same a.mu hold, and the scheduler
// pops the most recently parked one (its stack is grown and its cache warm)
// in the hold that debits the next task's cores. An executor is on the idle
// list only between tasks, so a task is never queued behind one that is
// sleeping out a modelled wait: modelled concurrency is exactly the core
// ledger's, as it was with a goroutine per task. The list keeps at most
// maxIdleExecutors; an executor that finds it full exits.
//
// A scheduler loop places a task several times faster than an executor runs
// a zero-cost one, so reuse alone would still start one executor per core
// before the first of them got a processor. Once eagerExecutors have been
// started, place therefore yields the processor once (runtime.Gosched) when
// none is idle and looks again before it starts another. The yield only
// reorders goroutines that are runnable anyway: executors blocked on the
// clock stay blocked, the yield returns at once and the spawn proceeds, so
// it cannot move virtual time or dispatch order. How many executors a run
// ends up with depends on the Go scheduler, as DrainCompletions' batch size
// does; nothing else does.
type agent struct {
	rts        *PilotRTS
	stop       <-chan struct{} // closed when the RTS stops
	cores      int
	gpus       int
	schedulers int

	mu       sync.Mutex
	cond     *sync.Cond
	free     int
	freeGPUs int
	stopping bool
	idle     []chan placement // parked executors, most recent last

	// spawned counts executors ever started. Outside a stop an executor only
	// exits past maxIdleExecutors parked ones, so up to that bound this many
	// exist.
	spawned atomic.Int64

	stagers *stagerPool
	wg      sync.WaitGroup // scheduler loops and executors
	ranOnce sync.Once

	// schedStats holds one counter block per scheduler loop (index =
	// scheduler id), exported through StoreStats.
	schedStats []schedStat

	// env is what every kernel this agent runs is handed: the same three
	// values for every task, so there is one per agent (kernels only read it).
	env workload.Env
}

// schedStat is one scheduler loop's tally: store pulls served, tasks
// dispatched, and virtual time spent dispatching pulled batches (busy, in
// nanoseconds — it includes time blocked waiting for cores, so a saturated
// pilot reads as a busy scheduler). Padded to a cache line so adjacent
// loops' per-task counter updates never false-share — the dispatch path is
// exactly what the scheduler pool parallelizes.
type schedStat struct {
	pulls      atomic.Uint64
	dispatched atomic.Uint64
	busy       atomic.Int64
	_          [40]byte
}

// maxIdleExecutors bounds the idle list. A burst wider than this re-spawns
// the excess on its next wave; steady state needs a few dozen.
const maxIdleExecutors = 1024

// eagerExecutors is how many executors are started without yielding first.
// The yield also lets the completion consumer in, so a yield in the middle of
// a stage splits the stage's results over several done-messages and sync
// round trips; a stage no wider than this is dispatched in one go, as it was
// with a goroutine per task (core's TestStageFrameBudget: 4 frames per
// 8-task stage, 5-6 with no floor). Past it the pool is large enough that
// the yield costs a wide stage nothing measurable.
const eagerExecutors = 64

// placement is one scheduled task on its way to an executor: the description
// (a pointer into the pulled batch, which the store never touches again), the
// resources to return when it ends, and the dispatch stagger to sleep first.
type placement struct {
	desc        *core.TaskDescription
	cores, gpus int
	delay       time.Duration
}

func newAgent(r *PilotRTS, cores, gpus, schedulers int) *agent {
	if schedulers < 1 {
		schedulers = 1
	}
	a := &agent{
		rts:        r,
		stop:       r.out.Stopping(),
		cores:      cores,
		gpus:       gpus,
		schedulers: schedulers,
		free:       cores,
		freeGPUs:   gpus,
		stagers:    newStagerPool(r.model.Stagers),
		schedStats: make([]schedStat, schedulers),
		env:        workload.Env{Clock: r.clock, Compute: r.cfg.Compute, Cancel: r.out.Stopping()},
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// run starts the scheduler loops. Starting is serialized against
// stopAndWait through a.mu: a stop that wins the race suppresses the start
// entirely, so the WaitGroup can never be Added after it is Waited on.
func (a *agent) run() {
	a.ranOnce.Do(func() {
		a.mu.Lock()
		if a.stopping {
			a.mu.Unlock()
			return
		}
		for id := 0; id < a.schedulers; id++ {
			a.wg.Add(1)
			go a.schedulerLoop(id)
		}
		a.mu.Unlock()
	})
}

// stagerPool models the agent's Model.Stagers data-staging workers in
// virtual time: one serialization watermark per modelled stager, booked by
// the executor that stages. A request is booked on the stager with the
// earliest watermark, so the staging makespan is deterministic regardless
// of which executor books first — Stagers=1 is RP's strictly serialized
// default (every staging queues behind the previous one), Stagers=K
// overlaps at most K stagings in virtual time. The watermarks replace
// sleeping per request: the Stagers-way serialization is exact in virtual
// time while the requesters sleep concurrently, so thousands of staged
// tasks cost negligible wall time.
type stagerPool struct {
	mu    sync.Mutex
	marks []time.Time
}

func newStagerPool(n int) *stagerPool {
	if n < 1 {
		n = 1
	}
	return &stagerPool{marks: make([]time.Time, n)}
}

// grant books duration d on the earliest-available stager at virtual time
// now, returning when the staging will have completed.
func (p *stagerPool) grant(now time.Time, d time.Duration) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := 0
	for i := 1; i < len(p.marks); i++ {
		if p.marks[i].Before(p.marks[best]) {
			best = i
		}
	}
	start := now
	if p.marks[best].After(start) {
		start = p.marks[best]
	}
	end := start.Add(d)
	p.marks[best] = end
	return end
}

// stage books files on the stager pool, charging the Data Staging
// category, and sleeps until the serialized staging would have completed
// (or the agent stops); it returns the staging time spent on the files.
func (a *agent) stage(files []fsim.File) time.Duration {
	fs := a.rts.cfg.FS
	if fs == nil || len(files) == 0 {
		return 0
	}
	d := fs.StageAccounted(files)
	a.rts.prof.Add(profiler.DataStaging, d)
	now := a.rts.clock.Now()
	if wait := a.stagers.grant(now, d).Sub(now); wait > 0 {
		select {
		case <-a.rts.clock.After(wait):
		case <-a.stop:
		}
	}
	return d
}

// schedulerPullBatch bounds how many tasks the scheduler pops from the
// store per lock round-trip.
const schedulerPullBatch = 256

// schedulerLoop pulls task batches from the store and places each task on
// free cores, serializing dispatch by DispatchLatency (the weak-scaling
// delay source). Batch pulls amortize the store's lock and journal append;
// placement within the batch is unchanged — one dispatch per task. Within a
// burst of dispatches the stagger is applied as a per-task start delay
// slept by the executor, which is virtually identical to a serial scheduler
// but costs one wall sleep per task instead of a serial chain.
//
// Each loop drains its preferred store shard and work-steals from the next
// non-empty one — the broker-consumer structure; a single-scheduler agent
// has a one-shard store and so pulls in strict push order. The
// DispatchLatency burst state is per scheduler, so concurrent loops stagger
// their own dispatch chains independently.
func (a *agent) schedulerLoop(id int) {
	defer a.wg.Done()
	burst := 0
	st := &a.schedStats[id]
	live := a.rts.live
	for {
		// Park while the live target excludes this loop (the autotune
		// controller shrank the pool); a knob change or an RTS stop unparks
		// it. The Changed channel is taken before re-reading the target so a
		// concurrent grow can never be missed. With a collapsed-bounds
		// handle the target equals the pool size and this never parks.
		for id >= live.Schedulers() {
			ch := live.Changed()
			if id < live.Schedulers() {
				break
			}
			select {
			case <-ch:
			case <-a.stop:
				return
			}
		}
		// The pull bound is the live batch knob, capped by the fixed
		// per-round-trip ceiling: one atomic load per pull decision.
		max := schedulerPullBatch
		if b := live.BatchSize(); b < max {
			max = b
		}
		descs, ok := a.rts.store.PullBatch(id, max)
		if !ok {
			// Closed — or failed on a journal append; a failed store kills
			// the RTS so the loss is visible to EnTK's heartbeat.
			a.rts.noteStoreFailure()
			return
		}
		st.pulls.Add(1)
		start := a.rts.clock.Now()
		for i := range descs {
			if !a.place(&descs[i], &burst) {
				return // agent stopping
			}
			st.dispatched.Add(1)
		}
		// One busy measurement per pulled batch (two clock reads, amortized
		// over the whole batch), feeding the controller's dispatch-latency
		// signal.
		st.busy.Add(int64(a.rts.clock.Now().Sub(start)))
	}
}

// schedulerStats snapshots the per-scheduler pull, dispatch and busy-time
// tallies.
func (a *agent) schedulerStats() (pulls, dispatched []uint64, busy []time.Duration) {
	pulls = make([]uint64, len(a.schedStats))
	dispatched = make([]uint64, len(a.schedStats))
	busy = make([]time.Duration, len(a.schedStats))
	for i := range a.schedStats {
		pulls[i] = a.schedStats[i].pulls.Load()
		dispatched[i] = a.schedStats[i].dispatched.Load()
		busy[i] = time.Duration(a.schedStats[i].busy.Load())
	}
	return pulls, dispatched, busy
}

// place schedules one task, blocking until its cores and GPUs are free, and
// hands it to an executor; it returns false when the agent is stopping.
func (a *agent) place(desc *core.TaskDescription, burst *int) bool {
	cores := desc.Cores
	if cores <= 0 {
		cores = 1
	}
	if cores > a.cores {
		// The task can never fit this pilot: report failure.
		a.rts.deliver(core.TaskResult{
			UID: desc.UID, ExitCode: 1,
			Error: "task requires more cores than the pilot has",
		})
		return true
	}
	gpus := desc.GPUs
	if gpus > a.gpus {
		a.rts.deliver(core.TaskResult{
			UID: desc.UID, ExitCode: 1,
			Error: "task requires more GPUs than the pilot has",
		})
		return true
	}
	work, granted, waited := a.acquire(cores, gpus)
	if !granted {
		return false
	}
	if waited {
		*burst = 0 // the scheduler idled; a new dispatch burst begins
	}
	delay := time.Duration(*burst) * a.rts.model.DispatchLatency
	*burst++
	if work == nil && a.spawned.Load() >= eagerExecutors {
		// Let the executors that are runnable finish and park before paying
		// for another goroutine (see the agent type comment).
		runtime.Gosched()
		a.mu.Lock()
		work = a.takeIdleLocked()
		a.mu.Unlock()
	}
	if work == nil {
		work = make(chan placement, 1)
		a.spawned.Add(1)
		a.wg.Add(1)
		go a.executorLoop(work)
	}
	work <- placement{desc: desc, cores: cores, gpus: gpus, delay: delay}
	return true
}

// executorLoop runs the tasks handed to one executor until the agent stops
// or the idle list has no room for it. The send in place never blocks: the
// slot is empty whenever work is on the idle list or freshly made.
func (a *agent) executorLoop(work chan placement) {
	defer a.wg.Done()
	for p := range work {
		if p.delay > 0 {
			select {
			case <-a.rts.clock.After(p.delay):
				a.execute(p.desc)
			case <-a.stop:
			}
		} else {
			a.execute(p.desc)
		}
		if !a.release(work, p.cores, p.gpus) {
			return
		}
	}
}

// acquire blocks until n cores and g GPUs are free and debits them, popping
// an idle executor (nil if none) in the same hold; granted=false when the
// agent stops, waited=true when the scheduler had to block. Cores and GPUs
// are acquired atomically so a GPU task cannot deadlock against a CPU task
// each holding half its needs.
func (a *agent) acquire(n, g int) (work chan placement, granted, waited bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for (a.free < n || a.freeGPUs < g) && !a.stopping {
		waited = true
		a.cond.Wait()
	}
	if a.stopping {
		return nil, false, waited
	}
	a.free -= n
	a.freeGPUs -= g
	return a.takeIdleLocked(), true, waited
}

// takeIdleLocked pops the most recently parked executor, or nil.
func (a *agent) takeIdleLocked() chan placement {
	n := len(a.idle)
	if n == 0 {
		return nil
	}
	work := a.idle[n-1]
	a.idle = a.idle[:n-1]
	return work
}

// release returns a finished task's resources and parks its executor on the
// idle list; parked=false tells the executor to exit instead (the agent is
// stopping or the list is full).
func (a *agent) release(work chan placement, n, g int) (parked bool) {
	a.mu.Lock()
	a.free += n
	a.freeGPUs += g
	if parked = !a.stopping && len(a.idle) < maxIdleExecutors; parked {
		a.idle = append(a.idle, work)
	}
	a.cond.Broadcast()
	a.mu.Unlock()
	return parked
}

// FreeCores reports currently free pilot cores.
func (a *agent) FreeCores() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.free
}

// FreeGPUs reports currently free pilot GPUs.
func (a *agent) FreeGPUs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeGPUs
}

// execute is the executor path for one task: stage in, set up the
// environment (LaunchDelay + pre-exec), run the kernel for its nominal
// duration under filesystem load, sample failures, stage out, report.
func (a *agent) execute(desc *core.TaskDescription) {
	r := a.rts

	// Stage input data (3 links + 1 copy per task in the weak-scaling
	// experiment). Local actions go through the shared-filesystem stagers;
	// transfer directives are enacted over the SAGA data-management layer.
	local, remote := splitStaging(desc.Input)
	stagingIn := a.stage(stagingFiles(local))
	xferIn, xferErr := a.transfer(remote)
	stagingIn += xferIn
	if xferErr != nil {
		r.deliver(core.TaskResult{
			UID:         desc.UID,
			ExitCode:    1,
			Error:       "input staging failed: " + xferErr.Error(),
			StagingTime: stagingIn,
		})
		return
	}

	// Execution-environment setup: this inflates observed task runtime
	// (paper: 1 s tasks run ≈5 s) but is part of the execution window.
	begin := r.clock.Now()
	envSetup := r.model.LaunchDelay +
		time.Duration(desc.PreExec+desc.PostExec)*r.model.PreExecCost
	if envSetup > 0 {
		r.clock.Sleep(envSetup)
	}

	// Sustained filesystem load while the executable runs.
	var loadTok *fsim.LoadToken
	if r.cfg.FS != nil && desc.IOLoad > 0 {
		loadTok = r.cfg.FS.AcquireLoad(desc.IOLoad)
	}

	started := r.clock.Now()
	exitCode := 0
	output := ""
	kernel, kerr := r.cfg.Registry.Lookup(desc.Executable)
	switch {
	case desc.Executable == "" && desc.LocalFunc != nil:
		// Pure in-process task: modelled duration then the function.
		r.clock.Sleep(desc.Duration)
		if err := desc.LocalFunc(); err != nil {
			exitCode, output = 1, err.Error()
		}
	case kerr != nil:
		exitCode, output = 127, kerr.Error()
	default:
		res, err := kernel.Run(context.Background(), workload.Spec{
			UID:         desc.UID,
			Arguments:   desc.Arguments,
			Environment: desc.Environment,
			Duration:    desc.Duration,
			Cores:       desc.Cores,
			Seed:        r.cfg.Seed + int64(len(desc.UID)),
		}, &a.env)
		if err != nil {
			exitCode, output = 1, err.Error()
		} else {
			exitCode, output = res.ExitCode, res.Output
		}
		if exitCode == 0 && desc.LocalFunc != nil {
			if err := desc.LocalFunc(); err != nil {
				exitCode, output = 1, err.Error()
			}
		}
	}

	// Failure injection: contention-induced crashes (Fig 10) and
	// unconditional fault-plan failures. The task is judged against the
	// peak aggregate load it ran under — the I/O storm crashes writers even
	// if some of them finish marginally earlier.
	if exitCode == 0 && loadTok != nil && r.cfg.FS.SampleFailureAt(loadTok.Peak()) {
		exitCode, output = 137, "I/O error: shared filesystem overloaded"
	}
	if exitCode == 0 && r.sampleTaskFault() {
		exitCode, output = 1, "injected task failure"
	}
	if loadTok != nil {
		loadTok.Release()
	}
	finished := r.clock.Now()
	r.prof.Observe(profiler.TaskExecution, begin, finished, finished.Sub(started))

	// Stage output data only for successful tasks.
	stagingOut := time.Duration(0)
	if exitCode == 0 {
		localOut, remoteOut := splitStaging(desc.Output)
		stagingOut = a.stage(stagingFiles(localOut))
		xferOut, xferOutErr := a.transfer(remoteOut)
		stagingOut += xferOut
		if xferOutErr != nil {
			exitCode, output = 1, "output staging failed: "+xferOutErr.Error()
		}
	}

	if exitCode == 0 {
		output = "" // what a successful kernel printed is not an error (TaskResult.Error)
	}
	r.deliver(core.TaskResult{
		UID:         desc.UID,
		ExitCode:    exitCode,
		Error:       output,
		Started:     started,
		Finished:    finished,
		StagingTime: stagingIn + stagingOut,
	})
}

// splitStaging partitions directives into local shared-filesystem actions
// (copy/link/move) and wide-area transfers. When the session has no
// transfer service, transfers degrade to local copies so applications stay
// runnable on a bare stack.
func splitStaging(dirs []core.StagingDirective) (local, remote []core.StagingDirective) {
	for _, d := range dirs {
		if d.Action == core.StagingTransfer {
			remote = append(remote, d)
			continue
		}
		local = append(local, d)
	}
	return local, remote
}

// transfer enacts wide-area staging directives through the SAGA
// data-management layer. Transfers run per-task (independent streams); per
// the paper their duration depends only on data size, network bandwidth and
// latency — not on the RTS. A transfer error (e.g. an unknown protocol in
// the task description) is returned so the executor can fail the task, the
// way a real CI surfaces staging errors at execution time.
func (a *agent) transfer(dirs []core.StagingDirective) (time.Duration, error) {
	if len(dirs) == 0 {
		return 0, nil
	}
	ts := a.rts.cfg.Session.Transfers()
	if ts == nil {
		// No data-management service: fall back to shared-filesystem copies.
		for i := range dirs {
			dirs[i].Action = core.StagingCopy
		}
		return a.stage(stagingFiles(dirs)), nil
	}
	var total time.Duration
	for _, d := range dirs {
		res, err := ts.Transfer(saga.TransferRequest{
			Source:   d.Source,
			Target:   d.Target,
			Bytes:    d.Bytes,
			Protocol: saga.Protocol(d.Protocol),
		})
		if err != nil {
			return total, err
		}
		a.rts.prof.Add(profiler.DataStaging, res.Duration)
		total += res.Duration
	}
	return total, nil
}

// stagingFiles converts staging directives to filesystem-model files.
func stagingFiles(dirs []core.StagingDirective) []fsim.File {
	if len(dirs) == 0 {
		return nil
	}
	files := make([]fsim.File, 0, len(dirs))
	for _, d := range dirs {
		files = append(files, fsim.File{
			Name:  d.Source,
			Bytes: d.Bytes,
			Link:  d.Action == core.StagingLink,
		})
	}
	return files
}

// stopAndWait unblocks the scheduler, dismisses the parked executors and
// waits for the busy ones. A work channel is closed only here, while it is on
// the idle list and under a.mu, and place sends only on one it popped under
// a.mu (or just made), so no send can meet a closed channel.
func (a *agent) stopAndWait() {
	a.mu.Lock()
	a.stopping = true
	for _, work := range a.idle {
		close(work)
	}
	a.idle = nil
	a.cond.Broadcast()
	a.mu.Unlock()
	a.wg.Wait()
}
