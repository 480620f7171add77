package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/entk"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/rts"
)

// The daemon workload is open-loop: arrivals follow a seeded schedule
// whatever the daemon does, because closed-loop throughput hides queueing
// delay (a slow daemon would simply receive less load). 200 runs/s is about
// an eighth of what 16 closed-loop clients reached on the reference box, so
// the backlog stays bounded and latency, not throughput, is the result.
const (
	daemonRate  = 200.0 // runs per second
	daemonCores = 1024
	// daemonSetups is how many times the workload brings a daemon up to take
	// a median set-up time; the last one serves the measurement.
	daemonSetups = 15
	// runTimeout bounds one run's Submit+Wait; a run that exceeds it counts
	// as failed.
	runTimeout = 60 * time.Second
)

// servedDaemon is one in-process entkd with its socket server and a client.
type servedDaemon struct {
	d      *daemon.Daemon
	srv    *daemon.Server
	client *entk.Client
}

// serveDaemon brings a daemon up to "first run can be submitted": shared
// pilot started, socket served, client dialled. daemon.Config pins the
// xsede-vm host model, so every hosted run carries its modelled MgmtBase
// (9.5 virtual s ≈ 2.4 ms at timeScale); see the README.
func serveDaemon(socket string) (*servedDaemon, error) {
	d, err := daemon.New(daemon.Config{
		SocketPath:        socket,
		Resource:          resourceName,
		Cores:             daemonCores,
		Walltime:          walltime,
		TimeScale:         timeScale,
		Model:             rts.FastModel(),
		AdmissionQueueLen: 1 << 16,
	})
	if err != nil {
		return nil, err
	}
	srv, err := d.Serve()
	if err != nil {
		d.Stop()
		return nil, err
	}
	client, err := entk.Dial(socket)
	if err != nil {
		srv.Close()
		d.Stop()
		return nil, err
	}
	return &servedDaemon{d: d, srv: srv, client: client}, nil
}

func (s *servedDaemon) stop() {
	s.srv.Close()
	s.d.Stop()
}

// arrival is one scheduled run of the open loop.
type arrival struct {
	due      time.Duration // offset from the loop's start
	body     []byte
	measured bool // false during warm-up
}

// openLoopPlan generates the loop's inputs from the seed alone: a warm-up
// stretch and a measured stretch of conditioned-Poisson arrivals, each with
// its own application document.
func openLoopPlan(seed int64, warm, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var plan []arrival
	for _, due := range arrivalSchedule(rng, daemonRate, warm) {
		plan = append(plan, arrival{due: due})
	}
	for _, due := range arrivalSchedule(rng, daemonRate, window) {
		plan = append(plan, arrival{due: warm + due, measured: true})
	}
	for i := range plan {
		plan[i].body = daemonAppJSON(daemonShape, rng)
	}
	return plan
}

// openLoopStats is what the measured stretch of an open loop observed.
type openLoopStats struct {
	latencyMS []float64     // due time to Wait return
	lagMS     []float64     // due time to the generator actually sending
	runs      int           // measured arrivals
	failed    int           // of which did not finish DONE
	why       string        // first failure
	window    time.Duration // length of the measured stretch of the schedule
	span      time.Duration // start of that stretch to the last completion
	cpu       time.Duration
	allocs    uint64
}

// achievedOverOffered compares runs completed per second with runs due per
// second over the measured stretch.
func (s *openLoopStats) achievedOverOffered() float64 {
	offered := float64(s.runs) / s.window.Seconds()
	achieved := float64(s.runs-s.failed) / s.span.Seconds()
	return achieved / offered
}

// driveOpenLoop runs plan through do, one call per arrival. The generator
// only sleeps to the next due time and spawns; it never waits for a run, so
// it cannot slow when the daemon does. Every run is timed from its due time,
// which charges a stall to every arrival it delays.
func driveOpenLoop(plan []arrival, warm, window time.Duration, do func(ctx context.Context, i int, a *arrival) error) *openLoopStats {
	st := &openLoopStats{window: window}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var m meter
	var lastDone time.Duration
	metering := false
	start := time.Now()
	for i := range plan {
		a := &plan[i]
		if a.measured && !metering {
			metering = true
			m = startMeter()
		}
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lag := time.Since(start) - a.due
			ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
			defer cancel()
			err := do(ctx, i, a)
			done := time.Since(start)
			if !a.measured {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			st.runs++
			if done > lastDone {
				lastDone = done
			}
			if err != nil {
				st.failed++
				if st.why == "" {
					st.why = fmt.Sprintf("run %d: %v", i, err)
				}
				return
			}
			st.latencyMS = append(st.latencyMS, ms(done-a.due))
			st.lagMS = append(st.lagMS, ms(lag))
		}(i)
	}
	wg.Wait()
	if metering {
		_, st.cpu, st.allocs = m.stop()
	}
	st.span = lastDone - warm
	return st
}

// submitAndWait is the open loop's operation: one run over the socket, from
// Submit to Wait returning. With a tracer, measured runs also stream their
// events to it.
func (sd *servedDaemon) submitAndWait(tr *tracer) func(ctx context.Context, i int, a *arrival) error {
	return func(ctx context.Context, i int, a *arrival) error {
		ref, err := sd.client.Submit(ctx, a.body, entk.SubmitOptions{Tenant: "bench"})
		if err != nil {
			return err
		}
		collected := make(chan struct{})
		if tr != nil && a.measured {
			// The run exists only once Submit returns, so the stream starts
			// a few transitions late; a hop is sampled only when both of its
			// commits were seen.
			sub, err := sd.d.Subscribe(ref.ID, core.EventFilter{Buffer: eventBuffer(daemonShape)})
			if err != nil {
				return err
			}
			go func() {
				defer close(collected)
				tr.collect(fmt.Sprintf("daemon-open/%d", i), sub, false)
			}()
		} else {
			close(collected)
		}
		err = ref.Wait(ctx)
		<-collected
		return err
	}
}

func (w *workload) runDaemon(o options, tr *tracer) (*pass, error) {
	socket := filepath.Join(o.tmp, "entkd.sock")
	p := &pass{nTasks: w.shape.n()}
	// Set-up runs to the first completed run, not just to a listening
	// socket: that is when a client knows the daemon serves, and it makes
	// the number milliseconds (mostly the modelled floor every run carries)
	// instead of a few hundred noisy microseconds.
	first := daemonAppJSON(daemonShape, rand.New(rand.NewSource(o.seed)))
	var sd *servedDaemon
	for i := 0; i < daemonSetups; i++ {
		if sd != nil {
			sd.stop()
		}
		t0 := time.Now()
		next, err := serveDaemon(socket)
		if err != nil {
			return nil, err
		}
		sd = next
		if err := sd.submitAndWait(nil)(context.Background(), 0, &arrival{body: first}); err != nil {
			sd.stop()
			return nil, fmt.Errorf("daemon-open: first run after set-up: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
	}
	defer sd.stop()

	warm := o.seconds / 4
	if warm > 3*time.Second {
		warm = 3 * time.Second
	}
	if o.warmup == 0 {
		warm = 0
	}
	st := driveOpenLoop(openLoopPlan(o.seed, warm, o.seconds), warm, o.seconds, sd.submitAndWait(tr))
	p.open = st

	p.attempted = st.runs
	if st.failed > 0 {
		p.fail(st.failed, "daemon-open: %d of %d runs failed (%s)", st.failed, st.runs, st.why)
	}
	if n := sd.d.LeakedLeases(); n != 0 {
		p.fail(1, "daemon-open: %d leaked leases", n)
	}
	if n := sd.d.PoolClaimed(); n != 0 {
		p.fail(1, "daemon-open: %d cores still claimed after the last run", n)
	}
	okRuns := st.runs - st.failed
	if okRuns == 0 {
		return nil, fmt.Errorf("daemon-open: no run completed (%s)", st.why)
	}
	tasks := float64(okRuns * p.nTasks)
	p.tasksPS = tasks / st.span.Seconds()
	p.wallS = []float64{st.span.Seconds()}
	p.cpuUS = []float64{us(st.cpu) / tasks}
	p.allocs = []float64{float64(st.allocs) / tasks}
	p.turnUS = make([]float64, len(st.latencyMS))
	for i, l := range st.latencyMS {
		p.turnUS[i] = l * 1000
	}
	return p, nil
}
