package rts

// LiveLeases is the number of admitted, unreleased leases.
func (p *Pool) LiveLeases() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.leases)
}

// Orphans counts completions whose lease was already released — tasks that
// finished on the pilot after their run abandoned them.
func (p *Pool) Orphans() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.orphans
}

// RunID returns the owning run's identifier.
func (l *Lease) RunID() string { return l.runID }
