package rts

// LiveLeases is the number of admitted, unreleased leases.
func (p *Pool) LiveLeases() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.leases)
}
