package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// fakeRTS is a minimal in-process runtime system used to test EnTK's
// workflow machinery in isolation — it proves the RTS really is replaceable
// behind the core.RTS interface (a paper requirement).
type fakeRTS struct {
	clock vclock.Clock
	// exitFor decides the exit code per task attempt; nil means success.
	exitFor func(desc TaskDescription) int
	// execDelay extends every task beyond its nominal duration.
	execDelay time.Duration
	// dieAfter kills the RTS (Alive -> false) once this many tasks have
	// been accepted; 0 disables.
	dieAfter int64

	completions chan TaskResult
	stopCh      chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup

	submitted int64
	completed int64
	failed    int64
	dead      int64

	// execLog records task UIDs in completion order. stopping is set, under
	// mu, as Stop begins: Submit takes its wg.Add under mu and refuses work
	// once it is set, so no Add races Stop's wg.Wait.
	mu       sync.Mutex
	execLog  []string
	started  bool
	stopping bool
}

func newFakeRTS(clock vclock.Clock) *fakeRTS {
	return &fakeRTS{
		clock:       clock,
		completions: make(chan TaskResult, 1024),
		stopCh:      make(chan struct{}),
	}
}

func (f *fakeRTS) Start(ctx context.Context) error {
	f.mu.Lock()
	f.started = true
	f.mu.Unlock()
	return nil
}

func (f *fakeRTS) Submit(tasks []TaskDescription) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopping {
		return errors.New("fakeRTS: stopped")
	}
	for _, desc := range tasks {
		n := atomic.AddInt64(&f.submitted, 1)
		if f.dieAfter > 0 && n > f.dieAfter && atomic.LoadInt64(&f.dead) == 1 {
			// A dead RTS swallows tasks (they are the "lost" in-flight work).
			continue
		}
		f.wg.Add(1)
		go f.execute(desc)
		if f.dieAfter > 0 && n == f.dieAfter {
			atomic.StoreInt64(&f.dead, 1)
		}
	}
	return nil
}

func (f *fakeRTS) execute(desc TaskDescription) {
	defer f.wg.Done()
	started := f.clock.Now()
	if d := desc.Duration + f.execDelay; d > 0 {
		select {
		case <-f.clock.After(d):
		case <-f.stopCh:
			return // RTS stopped while the task was executing
		}
	}
	if atomic.LoadInt64(&f.dead) == 1 {
		return // the RTS died mid-execution: the task is lost
	}
	exit := 0
	if f.exitFor != nil {
		exit = f.exitFor(desc)
	}
	if desc.LocalFunc != nil && exit == 0 {
		if err := desc.LocalFunc(); err != nil {
			exit = 1
		}
	}
	res := TaskResult{
		UID:      desc.UID,
		ExitCode: exit,
		Started:  started,
		Finished: f.clock.Now(),
	}
	// Log before delivering: once the result is on the channel the whole
	// downstream chain (callback -> done queue -> dequeue -> next stage)
	// can run and log successor tasks, so logging afterwards would make
	// execLog's order unreliable for the ordering assertions.
	f.mu.Lock()
	f.execLog = append(f.execLog, desc.UID)
	f.mu.Unlock()
	select {
	case f.completions <- res:
		atomic.AddInt64(&f.completed, 1)
		if exit != 0 {
			atomic.AddInt64(&f.failed, 1)
		}
	case <-f.stopCh:
	}
}

func (f *fakeRTS) Completions() <-chan TaskResult { return f.completions }

func (f *fakeRTS) Alive() bool { return atomic.LoadInt64(&f.dead) == 0 }

func (f *fakeRTS) Kill() { atomic.StoreInt64(&f.dead, 1) }

func (f *fakeRTS) Stop() error {
	f.stopOnce.Do(func() {
		f.mu.Lock()
		f.stopping = true
		close(f.stopCh)
		f.mu.Unlock()
		go func() {
			f.wg.Wait()
			close(f.completions)
		}()
	})
	return nil
}

func (f *fakeRTS) Stats() RTSStats {
	return RTSStats{
		TasksSubmitted: int(atomic.LoadInt64(&f.submitted)),
		TasksCompleted: int(atomic.LoadInt64(&f.completed)),
		TasksFailed:    int(atomic.LoadInt64(&f.failed)),
	}
}

func (f *fakeRTS) log() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.execLog))
	copy(out, f.execLog)
	return out
}
