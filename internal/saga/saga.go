// Package saga reproduces the role of the SAGA API in the paper's stack
// (§II-D): "The SAGA API implements an adapter for each supported type of
// CI, exposing uniform methods for job and data management." The RTS's
// PilotManager submits pilots through this layer without knowing which
// batch system it is talking to.
//
// Here every catalogued CI is served by an adapter over the hpc simulator;
// the adapter registry is open so tests can register fakes, demonstrating
// the same extensibility the real SAGA achieves with SSH/GSISSH/SLURM/PBS
// adapters.
package saga

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/hpc"
)

// JobDescription is the uniform job request accepted by every adapter.
type JobDescription struct {
	Name     string
	Cores    int
	Walltime time.Duration
}

// JobState is the uniform job state exposed by the API.
type JobState int

// Uniform job states.
const (
	StatePending JobState = iota
	StateRunning
	StateDone
	StateCanceled
	StateFailed
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case StatePending:
		return "PENDING"
	case StateRunning:
		return "RUNNING"
	case StateDone:
		return "DONE"
	case StateCanceled:
		return "CANCELED"
	case StateFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Job is the uniform handle on a submitted job.
type Job interface {
	// ID is the adapter-scoped job identifier.
	ID() string
	// State returns the current uniform state.
	State() JobState
	// Active is closed when the job starts running.
	Active() <-chan struct{}
	// Done is closed when the job reaches a terminal state.
	Done() <-chan struct{}
	// Cancel requests termination.
	Cancel() error
	// Complete marks the job finished from inside the allocation (a pilot
	// shutting itself down). Not part of real SAGA, but pilots need it.
	Complete() error
}

// Adapter is one CI-specific backend.
type Adapter interface {
	// Resource returns the CI name this adapter serves.
	Resource() string
	// Submit places a job on the CI's batch system.
	Submit(desc JobDescription) (Job, error)
	// Close releases the adapter's resources.
	Close()
}

// Session is the entry point: it owns a set of adapters keyed by resource
// name, mirroring saga.Session in the Python stack.
type Session struct {
	mu        sync.Mutex
	adapters  map[string]Adapter
	transfers *TransferService
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{adapters: make(map[string]Adapter)}
}

// Register installs an adapter. Registering a duplicate resource fails.
func (s *Session) Register(a Adapter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.adapters[a.Resource()]; ok {
		return fmt.Errorf("saga: adapter for %q already registered", a.Resource())
	}
	s.adapters[a.Resource()] = a
	return nil
}

// Adapter returns the adapter for a resource.
func (s *Session) Adapter(resource string) (Adapter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.adapters[resource]
	if !ok {
		return nil, fmt.Errorf("saga: no adapter for resource %q", resource)
	}
	return a, nil
}

// Submit routes a job description to the adapter for resource.
func (s *Session) Submit(resource string, desc JobDescription) (Job, error) {
	a, err := s.Adapter(resource)
	if err != nil {
		return nil, err
	}
	return a.Submit(desc)
}

// Close closes every adapter.
func (s *Session) Close() {
	s.mu.Lock()
	adapters := make([]Adapter, 0, len(s.adapters))
	for _, a := range s.adapters {
		adapters = append(adapters, a)
	}
	s.adapters = make(map[string]Adapter)
	s.mu.Unlock()
	for _, a := range adapters {
		a.Close()
	}
}

// clusterAdapter serves one simulated CI.
type clusterAdapter struct {
	cluster *hpc.Cluster
	ownsIt  bool
}

// NewClusterAdapter wraps an existing cluster simulation. The adapter does
// not close the cluster.
func NewClusterAdapter(c *hpc.Cluster) Adapter {
	return &clusterAdapter{cluster: c}
}

// OwnCluster wraps c like NewClusterAdapter, but its Close — and so the
// session's — tears c down.
func OwnCluster(c *hpc.Cluster) Adapter {
	return &clusterAdapter{cluster: c, ownsIt: true}
}

func (a *clusterAdapter) Resource() string { return a.cluster.Spec.Name }

func (a *clusterAdapter) Submit(desc JobDescription) (Job, error) {
	if desc.Cores <= 0 {
		return nil, errors.New("saga: job requests no cores")
	}
	j, err := a.cluster.Submit(hpc.JobDesc{
		Name:     desc.Name,
		Cores:    desc.Cores,
		Walltime: desc.Walltime,
	})
	if err != nil {
		return nil, err
	}
	return &clusterJob{job: j, cluster: a.cluster}, nil
}

func (a *clusterAdapter) Close() {
	if a.ownsIt {
		a.cluster.Close()
	}
}

type clusterJob struct {
	job     *hpc.Job
	cluster *hpc.Cluster
}

func (j *clusterJob) ID() string { return fmt.Sprintf("[%s]-[%d]", j.cluster.Spec.Name, j.job.ID) }

func (j *clusterJob) State() JobState {
	switch j.job.State() {
	case hpc.JobPending:
		return StatePending
	case hpc.JobRunning:
		return StateRunning
	case hpc.JobDone:
		return StateDone
	case hpc.JobCanceled:
		return StateCanceled
	case hpc.JobTimedOut, hpc.JobFailed:
		return StateFailed
	default:
		return StateFailed
	}
}

func (j *clusterJob) Active() <-chan struct{} { return j.job.Active() }
func (j *clusterJob) Done() <-chan struct{}   { return j.job.Done() }

func (j *clusterJob) Cancel() error {
	j.cluster.Cancel(j.job)
	return nil
}

func (j *clusterJob) Complete() error {
	j.cluster.Complete(j.job)
	return nil
}
