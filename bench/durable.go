package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// The durable workload has a write side and a read side. Uninterrupted runs
// with JournalDir on feed throughput, CPU and allocations: every committed
// transition is journaled and mirrored, and the mirror is snapshotted every
// 1024 records. Recoveries feed the turnaround metrics: a run is cut at the
// stage-0 boundary and a fresh manager Resumes from the directory, timed
// from the Resume call to the run handle coming back.

const (
	// crashReason marks a run the harness cut on purpose.
	crashReason = "bench: crash at the stage-0 boundary"
	// resumesPerPlain recoveries are timed after each uninterrupted rep.
	resumesPerPlain = 3
)

// crashed is one journal directory left behind by a cut run, plus what the
// harness needs to judge any incarnation resumed from (a copy of) it.
type crashed struct {
	dir        string
	tag        string          // UID tag of the application that crashed
	doneBefore map[string]bool // tasks the directory records DONE
	auditSeq   uint64          // last audit-log record written before the cut
}

// crash runs the application until stage 0 completes and cuts it with
// Run.Cancel, the chaos harness's crash stand-in: cancellation force-states
// without journaling, so the directory looks exactly like a process death.
func (w *workload) crash(dir, tag string) (*crashed, error) {
	a := buildApp(w.shape, tag)
	s, _, err := stackRig(a, stackConfig{cores: w.shape.cores, journalDir: dir})
	if err != nil {
		return nil, err
	}
	started := make(chan handle, 1)
	a.pipes[0].Stages()[0].PostExec = func() error {
		(<-started).Cancel(crashReason)
		return nil
	}
	run, err := s.Start(context.Background())
	if err != nil {
		return nil, err
	}
	started <- run
	var ce *core.CancelError
	if err := run.Wait(); !errors.As(err, &ce) || ce.Reason != crashReason {
		return nil, fmt.Errorf("durable: crashed incarnation ended with %v", err)
	}
	c := &crashed{dir: dir, tag: tag}
	if c.doneBefore, err = reconstructDone(dir); err != nil {
		return nil, err
	}
	if _, c.auditSeq, err = auditPushes(dir, 0); err != nil {
		return nil, err
	}
	if len(c.doneBefore) < w.shape.tasks {
		return nil, fmt.Errorf("durable: crash left %d DONE tasks, stage 0 has %d", len(c.doneBefore), w.shape.tasks)
	}
	return c, nil
}

func (w *workload) runDurable(o options, tr *tracer) (*pass, error) {
	p := &pass{nTasks: w.shape.n()}
	crashDir, err := os.MkdirTemp(o.tmp, "crashed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(crashDir) //nolint:errcheck // scratch
	c, err := w.crash(crashDir, repTag(o.seed, 0)+".c")
	if err != nil {
		return nil, err
	}
	verified := false // the first recovery of the pass runs to completion
	// A rep here is a cycle of four runs, so one warm-up cycle is enough.
	clock := repClock{warmup: min(o.warmup, 1), seconds: o.seconds}
	for rep := 0; ; rep++ {
		measured, done := clock.next(rep, len(p.wallS) > 0)
		if done {
			return p, nil
		}
		dir := filepath.Join(o.tmp, fmt.Sprintf("journal-%04d", rep))
		err := w.durablePlain(p, o, rep, dir, measured, tr)
		os.RemoveAll(dir) //nolint:errcheck // scratch; the whole tmp dir goes at exit
		if err != nil {
			return nil, err
		}
		for i := 0; i < resumesPerPlain; i++ {
			err := w.durableResume(p, c, dir, measured, !verified)
			os.RemoveAll(dir) //nolint:errcheck // scratch
			if err != nil {
				return nil, err
			}
			verified = true
		}
		if o.calibrate && measured {
			p.cal.topUp(time.Since(clock.opened) - p.cal.spent)
		}
	}
}

func (w *workload) durablePlain(p *pass, o options, rep int, dir string, measured bool, tr *tracer) error {
	a := buildApp(w.shape, repTag(o.seed, rep))
	runtime.GC()
	t0 := time.Now()
	_, r, err := stackRig(a, stackConfig{cores: w.shape.cores, journalDir: dir})
	if err != nil {
		return err
	}
	if _, err := w.rep(p, a, r, t0, tr, rep, measured); err != nil || !measured {
		return err
	}
	p.checkJournal(fmt.Sprintf("%s rep %d", w.name, rep), dir, a.uids)
	return nil
}

// durableResume times one recovery from a copy of the crashed directory.
// With full set, the resumed incarnation runs to completion and is held to
// the whole durability contract: conservation from the directory alone, and
// no task recorded DONE before the crash submitted to the RTS again. Without
// it the incarnation is cut as soon as its handle is back, which is all the
// timing needs.
func (w *workload) durableResume(p *pass, c *crashed, dir string, measured, full bool) error {
	if err := os.CopyFS(dir, os.DirFS(c.dir)); err != nil {
		return err
	}
	a := buildApp(w.shape, c.tag)
	runtime.GC()
	s, _, err := stackRig(a, stackConfig{cores: w.shape.cores, journalDir: dir})
	if err != nil {
		return err
	}
	watch := watchBroker(a, s.inner)
	t0 := time.Now()
	run, err := s.Resume(context.Background(), dir)
	if err != nil {
		return fmt.Errorf("durable: resume: %w", err)
	}
	took := time.Since(t0)
	if !full {
		run.Cancel("bench: recovery timed")
	}
	err = run.Wait()
	var ce *core.CancelError
	if full && err != nil || !full && !errors.As(err, &ce) {
		return fmt.Errorf("durable: resumed incarnation ended with %v", err)
	}
	if measured {
		p.turnUS = append(p.turnUS, us(took))
	}

	info := s.inner.RecoveryInfo()
	if !info.Resumed || info.TasksRecovered != len(c.doneBefore) {
		p.fail(1, "durable: resume recovered %d tasks, the directory held %d DONE", info.TasksRecovered, len(c.doneBefore))
	}
	if !full {
		return nil
	}
	const label = "durable resumed run"
	before := p.attempted
	p.checkRun(label, run.Snapshot(), p.nTasks, p.nTasks-info.TasksRecovered, watch)
	p.attempted = before // the same tasks are counted by the uninterrupted reps
	p.checkJournal(label, dir, a.uids)
	pushed, _, err := auditPushes(dir, c.auditSeq)
	if err != nil {
		return err
	}
	again := 0
	for _, uid := range pushed {
		if c.doneBefore[uid] {
			again++
		}
	}
	if again > 0 {
		p.fail(again, "durable: %d tasks DONE before the crash were submitted again after Resume", again)
	}
	return nil
}
