package workload

import "sort"

// Names lists registered kernels, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.kernels))
	for n := range r.kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LJEnergy runs the MD integrator on its own, for energy conservation checks.
func LJEnergy(n, steps int, seed int64) float64 { return runLJ(n, steps, seed) }
