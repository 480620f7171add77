package daemon

import "repro/internal/core"

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

// DispatchTrace exposes the pool's tenant dispatch order (requires
// Config.TraceDispatch).
func (d *Daemon) DispatchTrace() []string { return d.pool.DispatchTrace() }
