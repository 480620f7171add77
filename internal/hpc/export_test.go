package hpc

// TotalCores returns the machine's core count.
func (s *Spec) TotalCores() int { return s.Nodes * s.CoresPerNode }

// FreeNodes returns the currently unallocated node count.
func (c *Cluster) FreeNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeNodes
}
