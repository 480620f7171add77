package remoterts

// Err reports why the Proxy died — its first agent's death — nil while
// healthy.
func (p *Proxy) Err() error {
	if err := p.deathErr.Load(); err != nil {
		return *err
	}
	return nil
}
