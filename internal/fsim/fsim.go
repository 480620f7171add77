// Package fsim models the shared parallel filesystem (OLCF Lustre in the
// paper) that mediates two experimental behaviours:
//
//   - Data staging time (Fig 8): RP stages each task's directory with Unix
//     commands through a single stager, so staging time grows linearly with
//     the number of tasks — ≈11 s for 512 tasks to ≈88 s for 4,096 tasks
//     with 3 soft links and one 550 KB file per task.
//   - I/O-contention failures (Fig 10): concurrent Specfem forward
//     simulations "overload the file system, inducing crashes"; no failures
//     occur up to 2⁴ concurrent simulations, while at 2⁵ about half the
//     tasks fail and must be resubmitted.
//
// The model charges virtual time per metadata operation and per byte moved,
// and tracks an aggregate load level from which a failure probability is
// derived.
package fsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/vclock"
)

// File describes one object to stage.
type File struct {
	// Bytes is the payload size; ignored for links.
	Bytes int64
	// Link marks a symbolic link, which costs only a metadata operation.
	Link bool
}

// Spec parameterizes a shared filesystem.
type Spec struct {
	// Name identifies the filesystem (e.g. "olcf-lustre").
	Name string
	// MetadataOpLatency is the virtual-time cost of one metadata operation
	// (create, link, open).
	MetadataOpLatency time.Duration
	// StageRate is the sequential copy bandwidth in bytes per virtual
	// second seen by one stager.
	StageRate float64
	// ContentionThreshold is the aggregate I/O load (arbitrary units;
	// one heavy writer ≈ 1.0) beyond which induced failures begin.
	ContentionThreshold float64
	// FailureSlope scales how quickly the failure probability grows with
	// load beyond the threshold: p = FailureSlope * (load-thr)/thr.
	FailureSlope float64
	// FailureCap bounds the failure probability.
	FailureCap float64
}

// Validate reports whether the spec is usable.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("fsim: empty name")
	}
	if s.MetadataOpLatency < 0 {
		return fmt.Errorf("fsim %q: negative metadata latency", s.Name)
	}
	if s.StageRate <= 0 {
		return fmt.Errorf("fsim %q: non-positive stage rate", s.Name)
	}
	if s.FailureSlope < 0 || s.FailureCap < 0 || s.FailureCap > 1 {
		return fmt.Errorf("fsim %q: bad failure parameters", s.Name)
	}
	return nil
}

// OLCFLustre returns the Lustre model calibrated against the paper's
// weak-scaling staging times (≈21.5 ms/task: 4 metadata ops at 4 ms plus
// 550 KB at 100 MB/s) and the Fig 10 contention behaviour: no failures at
// or below 16 concurrent heavy writers; at 32 writers the peak-load failure
// probability is 0.5, matching the paper's "50% of the tasks failed".
func OLCFLustre() Spec {
	return Spec{
		Name:                "olcf-lustre",
		MetadataOpLatency:   4 * time.Millisecond,
		StageRate:           100e6,
		ContentionThreshold: 16,
		FailureSlope:        0.5,
		FailureCap:          0.85,
	}
}

// XSEDEShared returns a generic XSEDE shared-filesystem model, used by the
// overhead experiments (which stage little or no data).
func XSEDEShared() Spec {
	return Spec{
		Name:                "xsede-shared",
		MetadataOpLatency:   5 * time.Millisecond,
		StageRate:           80e6,
		ContentionThreshold: 64,
		FailureSlope:        0.5,
		FailureCap:          0.5,
	}
}

// Stats is a snapshot of filesystem accounting.
type Stats struct {
	BytesStaged int64
	StageCalls  int64
	PeakLoad    float64
}

// FS is a live filesystem simulation.
type FS struct {
	spec Spec

	mu     sync.Mutex
	load   float64
	active map[*LoadToken]struct{}
	rng    *rand.Rand
	stats  Stats
}

// New creates a filesystem simulation. seed makes failure sampling
// reproducible. The model computes durations and sleeps on no clock; the
// clock parameter is unused.
func New(spec Spec, _ vclock.Clock, seed int64) (*FS, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &FS{
		spec:   spec,
		active: make(map[*LoadToken]struct{}),
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// Spec returns the filesystem's parameters.
func (fs *FS) Spec() Spec { return fs.spec }

// StageDuration computes the virtual time one stager needs to move files,
// without sleeping.
func (fs *FS) StageDuration(files []File) time.Duration {
	var d time.Duration
	for _, f := range files {
		d += fs.spec.MetadataOpLatency
		if !f.Link && f.Bytes > 0 {
			d += time.Duration(float64(f.Bytes) / fs.spec.StageRate * float64(time.Second))
		}
	}
	return d
}

// StageAccounted records the staging in the statistics and returns its
// modelled duration without sleeping. Callers that serialize staging through
// a worker use it to compute completion offsets and sleep concurrently.
func (fs *FS) StageAccounted(files []File) time.Duration {
	d := fs.StageDuration(files)
	fs.mu.Lock()
	fs.stats.StageCalls++
	for _, f := range files {
		if !f.Link {
			fs.stats.BytesStaged += f.Bytes
		}
	}
	fs.mu.Unlock()
	return d
}

// LoadToken represents I/O load registered on the filesystem; Release it
// when the writer finishes. The token remembers the peak aggregate load it
// co-existed with: a task that ran while 32 writers hammered the filesystem
// samples its failure against that storm even if others finished first.
type LoadToken struct {
	fs       *FS
	units    float64
	peak     float64
	released bool
	mu       sync.Mutex
}

// AcquireLoad registers units of sustained I/O load (one heavy writer ≈ 1).
func (fs *FS) AcquireLoad(units float64) *LoadToken {
	t := &LoadToken{fs: fs, units: units}
	fs.mu.Lock()
	fs.load += units
	if fs.load > fs.stats.PeakLoad {
		fs.stats.PeakLoad = fs.load
	}
	t.peak = fs.load
	// Every concurrent writer has now seen at least this aggregate load.
	for tok := range fs.active {
		tok.bumpPeak(fs.load)
	}
	fs.active[t] = struct{}{}
	fs.mu.Unlock()
	return t
}

func (t *LoadToken) bumpPeak(load float64) {
	t.mu.Lock()
	if load > t.peak {
		t.peak = load
	}
	t.mu.Unlock()
}

// Peak returns the highest aggregate load observed while the token was
// held.
func (t *LoadToken) Peak() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// Release removes the token's load. Safe to call more than once.
func (t *LoadToken) Release() {
	t.mu.Lock()
	if t.released {
		t.mu.Unlock()
		return
	}
	t.released = true
	t.mu.Unlock()
	t.fs.mu.Lock()
	t.fs.load -= t.units
	delete(t.fs.active, t)
	t.fs.mu.Unlock()
}

// probAt computes the failure probability at a given aggregate load.
func (fs *FS) probAt(load float64) float64 {
	thr := fs.spec.ContentionThreshold
	if thr <= 0 || load <= thr {
		return 0
	}
	p := fs.spec.FailureSlope * (load - thr) / thr
	if p > fs.spec.FailureCap {
		p = fs.spec.FailureCap
	}
	return p
}

// SampleFailureAt draws a failure against an explicit load level — callers
// use a LoadToken's Peak so a task is judged by the worst storm it ran in.
func (fs *FS) SampleFailureAt(load float64) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.drawLocked(fs.probAt(load))
}

func (fs *FS) drawLocked(p float64) bool {
	if p <= 0 {
		return false
	}
	return fs.rng.Float64() < p
}

// Stats returns current accounting.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}
