// Package hpc simulates the high-performance computing infrastructures
// (CIs) the paper runs on: XSEDE SuperMIC, Stampede and Comet, and ORNL
// Titan. It models what the experiments depend on — node/core/GPU
// inventories, a FIFO batch queue with configurable queue wait, walltime
// enforcement, and per-job lifecycle — while treating everything below
// (interconnect, OS images) as out of scope, exactly as the paper treats the
// CI as a black box that reports failures indirectly.
package hpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Spec describes a computing infrastructure.
type Spec struct {
	// Name is the CI's identifier, e.g. "titan".
	Name string
	// Nodes is the number of compute nodes.
	Nodes int
	// CoresPerNode is the CPU core count per node.
	CoresPerNode int
	// GPUsPerNode is the GPU count per node.
	GPUsPerNode int
	// BaseQueueWait is the virtual time a job waits in the batch queue
	// before it can start, even when resources are free. The paper's
	// experiments exclude queue wait, so experiment configs set this to 0;
	// it exists (and is tested) because pilot behaviour depends on it.
	BaseQueueWait time.Duration
	// MaxWalltime is the scheduling policy's walltime cap (Titan imposed
	// the 2-hour cap that shaped the strong-scaling experiment).
	MaxWalltime time.Duration
	// SchedulerCycle is the latency of one batch-scheduler dispatch cycle.
	SchedulerCycle time.Duration
	// Backfill enables backfill scheduling: when the queue head does not
	// fit the free nodes, later jobs that do fit may start ahead of it.
	// Production batch systems (Moab on Titan, SLURM on the XSEDE CIs) all
	// backfill; the default here is strict FIFO because the paper's
	// experiments size pilots to fit and exclude queue dynamics.
	Backfill bool
}

// TotalCores returns the machine's core count.
func (s *Spec) TotalCores() int { return s.Nodes * s.CoresPerNode }

// Validate reports whether the spec is self-consistent.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("hpc: empty CI name")
	}
	if s.Nodes <= 0 || s.CoresPerNode <= 0 {
		return fmt.Errorf("hpc %q: non-positive node/core counts", s.Name)
	}
	if s.GPUsPerNode < 0 {
		return fmt.Errorf("hpc %q: negative GPU count", s.Name)
	}
	if s.MaxWalltime <= 0 {
		return fmt.Errorf("hpc %q: non-positive max walltime", s.Name)
	}
	return nil
}

// Catalog of the four CIs used in the paper (§IV). Node counts and
// cores-per-node reflect the production systems of the time.
var catalog = map[string]Spec{
	"supermic": {
		Name: "supermic", Nodes: 380, CoresPerNode: 20, GPUsPerNode: 0,
		MaxWalltime: 72 * time.Hour, SchedulerCycle: 2 * time.Second,
	},
	"stampede": {
		Name: "stampede", Nodes: 6400, CoresPerNode: 16, GPUsPerNode: 0,
		MaxWalltime: 48 * time.Hour, SchedulerCycle: 2 * time.Second,
	},
	"comet": {
		Name: "comet", Nodes: 1944, CoresPerNode: 24, GPUsPerNode: 0,
		MaxWalltime: 48 * time.Hour, SchedulerCycle: 2 * time.Second,
	},
	"titan": {
		Name: "titan", Nodes: 18688, CoresPerNode: 16, GPUsPerNode: 1,
		MaxWalltime: 2 * time.Hour, SchedulerCycle: 2 * time.Second,
	},
}

// LookupSpec returns the catalogued spec for a CI name.
func LookupSpec(name string) (Spec, error) {
	s, ok := catalog[name]
	if !ok {
		return Spec{}, fmt.Errorf("hpc: unknown CI %q", name)
	}
	return s, nil
}

// Names lists the catalogued CIs in the paper's order.
func Names() []string { return []string{"supermic", "stampede", "comet", "titan"} }

// JobState is the lifecycle state of a batch job.
type JobState int

// Batch-job states.
const (
	JobPending JobState = iota
	JobRunning
	JobDone
	JobCanceled
	JobTimedOut
	JobFailed
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "PENDING"
	case JobRunning:
		return "RUNNING"
	case JobDone:
		return "DONE"
	case JobCanceled:
		return "CANCELED"
	case JobTimedOut:
		return "TIMED_OUT"
	case JobFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobCanceled || s == JobTimedOut || s == JobFailed
}

// JobDesc describes a batch-job request (a pilot, in RP terms).
type JobDesc struct {
	Name     string
	Cores    int           // requested cores; rounded up to whole nodes
	Walltime time.Duration // requested walltime
}

// Job is a submitted batch job.
type Job struct {
	ID    int
	Desc  JobDesc
	Nodes int // allocated nodes

	cluster *Cluster

	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time

	activeCh chan struct{} // closed when the job starts running
	doneCh   chan struct{} // closed when the job reaches a terminal state
	wallStop chan struct{} // stops the walltime watchdog
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Active returns a channel closed when the job starts running.
func (j *Job) Active() <-chan struct{} { return j.activeCh }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Cluster is a running simulation of one CI's batch system.
type Cluster struct {
	Spec  Spec
	clock vclock.Clock

	mu        sync.Mutex
	freeNodes int
	nextJobID int
	pending   []*Job
	running   map[int]*Job
	closed    bool

	// accounting
	jobsStarted  int
	jobsFinished int
	backfills    int
	nodeSeconds  float64
}

// NewCluster creates a cluster simulation for spec driven by clock.
func NewCluster(spec Spec, clock vclock.Clock) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, errors.New("hpc: nil clock")
	}
	return &Cluster{
		Spec:      spec,
		clock:     clock,
		freeNodes: spec.Nodes,
		running:   make(map[int]*Job),
	}, nil
}

// NewClusterByName creates a cluster for a catalogued CI.
func NewClusterByName(name string, clock vclock.Clock) (*Cluster, error) {
	spec, err := LookupSpec(name)
	if err != nil {
		return nil, err
	}
	return NewCluster(spec, clock)
}

// FreeNodes returns the currently unallocated node count.
func (c *Cluster) FreeNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeNodes
}

// Submit places a job in the batch queue. The job becomes schedulable after
// the CI's BaseQueueWait has elapsed.
func (c *Cluster) Submit(desc JobDesc) (*Job, error) {
	if desc.Cores <= 0 {
		return nil, fmt.Errorf("hpc: job %q requests %d cores", desc.Name, desc.Cores)
	}
	nodes := (desc.Cores + c.Spec.CoresPerNode - 1) / c.Spec.CoresPerNode
	if nodes > c.Spec.Nodes {
		return nil, fmt.Errorf("hpc: job %q needs %d nodes; %s has %d",
			desc.Name, nodes, c.Spec.Name, c.Spec.Nodes)
	}
	if desc.Walltime <= 0 {
		return nil, fmt.Errorf("hpc: job %q has non-positive walltime", desc.Name)
	}
	if desc.Walltime > c.Spec.MaxWalltime {
		return nil, fmt.Errorf("hpc: job %q walltime %v exceeds %s cap %v",
			desc.Name, desc.Walltime, c.Spec.Name, c.Spec.MaxWalltime)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("hpc: cluster closed")
	}
	c.nextJobID++
	j := &Job{
		ID:       c.nextJobID,
		Desc:     desc,
		Nodes:    nodes,
		cluster:  c,
		state:    JobPending,
		activeCh: make(chan struct{}),
		doneCh:   make(chan struct{}),
		wallStop: make(chan struct{}),
	}
	c.mu.Unlock()

	// Enqueue synchronously when there is no queue wait so that back-to-back
	// Submit calls keep FIFO order; only a real queue wait defers to a
	// goroutine sleeping on the virtual clock.
	if c.Spec.BaseQueueWait > 0 {
		go func() {
			c.clock.Sleep(c.Spec.BaseQueueWait)
			c.enqueue(j)
		}()
	} else {
		c.enqueue(j)
	}
	return j, nil
}

func (c *Cluster) enqueue(j *Job) {
	c.mu.Lock()
	if c.closed || j.State().Terminal() {
		c.mu.Unlock()
		return
	}
	c.pending = append(c.pending, j)
	c.mu.Unlock()
	c.schedule()
}

// schedule starts as many pending jobs as fit. In FIFO mode the queue head
// blocks all later jobs; with Spec.Backfill, later jobs that fit the free
// nodes start ahead of a blocked head (jobs never reorder among themselves
// otherwise).
func (c *Cluster) schedule() {
	for {
		c.mu.Lock()
		if c.closed || len(c.pending) == 0 {
			c.mu.Unlock()
			return
		}
		// Find the next startable job: drop canceled entries, take the
		// first fitting job (index 0 only, unless backfilling).
		idx := -1
		for i := 0; i < len(c.pending); {
			cand := c.pending[i]
			if cand.State() == JobCanceled {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				continue
			}
			if cand.Nodes <= c.freeNodes {
				idx = i
				break
			}
			if !c.Spec.Backfill {
				// Strict FIFO: the head blocks the queue. This is
				// conservative but matches the experiments, which size
				// pilots to fit.
				break
			}
			i++
		}
		if idx < 0 {
			c.mu.Unlock()
			return
		}
		j := c.pending[idx]
		c.pending = append(c.pending[:idx], c.pending[idx+1:]...)
		if idx > 0 {
			c.backfills++
		}
		c.freeNodes -= j.Nodes
		c.running[j.ID] = j
		c.jobsStarted++
		// Transition the job under c.mu so a concurrent Cancel cannot observe
		// it half-started (nodes allocated but state still pending).
		j.mu.Lock()
		j.state = JobRunning
		j.started = c.clock.Now()
		close(j.activeCh)
		j.mu.Unlock()
		c.mu.Unlock()

		// Walltime watchdog.
		go func(j *Job) {
			select {
			case <-c.clock.After(j.Desc.Walltime):
				c.finish(j, JobTimedOut)
			case <-j.wallStop:
			}
		}(j)
	}
}

// Complete marks a running job finished normally (the pilot shut down).
func (c *Cluster) Complete(j *Job) { c.finish(j, JobDone) }

// Cancel cancels a pending or running job.
func (c *Cluster) Cancel(j *Job) { c.finish(j, JobCanceled) }

func (c *Cluster) finish(j *Job, state JobState) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	wasRunning := j.state == JobRunning
	j.state = state
	j.finished = c.clock.Now()
	close(j.doneCh)
	select {
	case <-j.wallStop:
	default:
		close(j.wallStop)
	}
	started := j.started
	j.mu.Unlock()

	if wasRunning {
		c.mu.Lock()
		delete(c.running, j.ID)
		c.freeNodes += j.Nodes
		c.jobsFinished++
		if !started.IsZero() {
			c.nodeSeconds += float64(j.Nodes) * j.finished.Sub(started).Seconds()
		}
		c.mu.Unlock()
		c.schedule()
	}
}

// Stats is a snapshot of cluster accounting.
type Stats struct {
	JobsStarted  int
	JobsFinished int
	FreeNodes    int
	RunningJobs  int
	PendingJobs  int
	// Backfills counts jobs started ahead of a blocked queue head.
	Backfills   int
	NodeSeconds float64
}

// Stats returns current accounting.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		JobsStarted:  c.jobsStarted,
		JobsFinished: c.jobsFinished,
		FreeNodes:    c.freeNodes,
		RunningJobs:  len(c.running),
		PendingJobs:  len(c.pending),
		Backfills:    c.backfills,
		NodeSeconds:  c.nodeSeconds,
	}
}

// Close terminates the cluster, cancelling all jobs.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var all []*Job
	all = append(all, c.pending...)
	for _, j := range c.running {
		all = append(all, j)
	}
	c.pending = nil
	c.mu.Unlock()
	for _, j := range all {
		c.finish(j, JobCanceled)
	}
}
