package fsim

import (
	"time"

	"repro/internal/vclock"
)

// Stage moves files through one stager, sleeping on clock for the modelled
// duration and returning it.
func (fs *FS) Stage(clock vclock.Clock, files []File) time.Duration {
	d := fs.StageAccounted(files)
	clock.Sleep(d)
	return d
}

// Load returns the current aggregate load.
func (fs *FS) Load() float64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.load
}

// FailureProbability returns the induced-failure probability at the current
// load level: zero at or below the contention threshold, growing linearly
// with relative overload, capped.
func (fs *FS) FailureProbability() float64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.probAt(fs.load)
}

// SampleFailure draws whether a task crashes under the current load.
func (fs *FS) SampleFailure() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.drawLocked(fs.probAt(fs.load))
}
