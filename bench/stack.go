package main

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/hostmodel"
	"repro/internal/hpc"
	"repro/internal/rts"
	"repro/internal/saga"
	"repro/internal/tuning"
	"repro/internal/vclock"
	kernels "repro/internal/workload"
)

// Every workload runs on the same simulated machine: supermic at its 72 h
// walltime cap. At timeScale a pilot lives 72 h × 250 µs = 64.8 s of wall
// time, so a rep must never outlive that (see README, "the TimeScale trap").
const (
	resourceName = "supermic"
	walltime     = 72 * time.Hour
	timeScale    = 250 * time.Microsecond
	// defaultBatch mirrors entk's defaultBatchSize (entk/tuning.go).
	defaultBatch = 1024
)

// stackConfig is the part of entk.AppConfig the embedded workloads vary.
type stackConfig struct {
	cores      int
	journalDir string // "" = non-durable
}

// stack is the hand-wired embedded deployment: the same assembly as
// entk.NewAppManager (entk/entk.go) with two substitutions that take the
// simulated machine out of the measurement — rts.FastModel() for the
// per-CI RTS cost model and hostmodel.Null() for the EnTK host model — so
// what is timed is the toolkit, not modelled sleeps rounded up to timer
// granularity. stack_test.go pins it to the shipped wiring.
type stack struct {
	inner   *core.AppManager
	session *saga.Session
	cluster *hpc.Cluster

	teardownOnce sync.Once
}

// newCI builds the simulated machine every deployment shape runs on: a
// supermic cluster driven by clock, behind a SAGA session.
func newCI(clock vclock.Clock) (*hpc.Cluster, *saga.Session, error) {
	spec, err := hpc.LookupSpec(resourceName)
	if err != nil {
		return nil, nil, err
	}
	cluster, err := hpc.NewCluster(spec, clock)
	if err != nil {
		return nil, nil, err
	}
	session := saga.NewSession()
	if err := session.Register(saga.NewClusterAdapter(cluster)); err != nil {
		cluster.Close()
		return nil, nil, err
	}
	return cluster, session, nil
}

// newStack assembles the stack for cfg, in entk.NewAppManager's order.
func newStack(cfg stackConfig) (*stack, error) {
	clock := vclock.NewScaled(timeScale)
	cluster, session, err := newCI(clock)
	if err != nil {
		return nil, err
	}
	transfers, err := saga.NewTransferService(clock)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	session.SetTransferService(transfers)
	fs, err := fsim.New(fsim.XSEDEShared(), clock, 0)
	if err != nil {
		cluster.Close()
		return nil, err
	}

	// entk.resolveTuning's defaults, autotune off: one collapsed-bounds
	// knob handle shared by the core and the RTS.
	shards := broker.DefaultShards()
	scheds := runtime.GOMAXPROCS(0)
	if scheds > shards {
		scheds = shards
	}
	live := tuning.Fixed(defaultBatch, scheds)

	am, err := core.NewAppManager(core.Config{
		Clock:            clock,
		Host:             hostmodel.Null(),
		JournalDir:       cfg.journalDir,
		EmgrBatch:        defaultBatch,
		QueueShards:      shards,
		SchedulerWorkers: scheds,
		Live:             live,
	})
	if err != nil {
		cluster.Close()
		return nil, err
	}
	am.SetResource(core.ResourceDesc{Resource: resourceName, Cores: cfg.cores, Walltime: walltime})
	rtsCfg := rts.Config{
		Clock:       clock,
		Session:     session,
		Registry:    kernels.NewRegistry(),
		FS:          fs,
		Prof:        am.Profiler(),
		Model:       rts.FastModel(),
		QueueShards: shards,
		Schedulers:  scheds,
		Live:        live,
	}
	if cfg.journalDir != "" {
		rtsCfg.StorePath = filepath.Join(cfg.journalDir, auditLogName)
	}
	am.SetRTSFactory(rts.Factory(rtsCfg))
	return &stack{inner: am, session: session, cluster: cluster}, nil
}

func (s *stack) teardown() {
	s.teardownOnce.Do(func() {
		s.cluster.Close()
		s.session.Close()
	})
}

// stackRun owns the infrastructure teardown, like entk.Run.
type stackRun struct {
	*core.Run
	s *stack
}

// Wait blocks until the run and the simulated infrastructure are torn down.
func (r *stackRun) Wait() error {
	err := r.Run.Wait()
	r.s.teardown()
	return err
}

func (s *stack) started(inner *core.Run, err error) (*stackRun, error) {
	if err != nil {
		if !errors.Is(err, core.ErrAlreadyRan) {
			s.teardown()
		}
		return nil, err
	}
	return &stackRun{Run: inner, s: s}, nil
}

func (s *stack) Start(ctx context.Context) (*stackRun, error) {
	return s.started(s.inner.Start(ctx))
}

func (s *stack) Resume(ctx context.Context, journalDir string) (*stackRun, error) {
	return s.started(s.inner.Resume(ctx, journalDir))
}
