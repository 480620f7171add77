package hpc

// TotalCores returns the machine's core count.
func (s *Spec) TotalCores() int { return s.Nodes * s.CoresPerNode }

// FreeNodes returns the currently unallocated node count.
func (c *Cluster) FreeNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeNodes
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
