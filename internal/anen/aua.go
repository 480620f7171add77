package anen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// AUAConfig drives the Adaptive Unstructured Analog algorithm (paper Fig 5).
type AUAConfig struct {
	// Seeds is the number of initial random locations.
	Seeds int
	// PerIteration is how many new locations each iteration adds.
	PerIteration int
	// Budget is the total location budget (the paper's runs use 1,800 of
	// 262,972 pixels, ≈0.68 %; scale accordingly).
	Budget int
	// ErrThreshold stops early when the estimated error drops below it;
	// <= 0 disables early stopping (budget-limited, as in Fig 11).
	ErrThreshold float64
	// Subregions is the number of parallel sub-region tasks per iteration
	// (the M of Fig 5).
	Subregions int
	// Params is the analog search configuration.
	Params Params
}

// DefaultAUAConfig scales the paper's setup to the default grid: the same
// ≈0.68 % of pixels (9,216 * 0.0068 ≈ 63... rounded up generously to keep
// the interpolation meaningful at laptop scale).
func DefaultAUAConfig() AUAConfig {
	return AUAConfig{
		Seeds:        60,
		PerIteration: 30,
		Budget:       450,
		Subregions:   8,
		Params:       DefaultParams(),
	}
}

// Validate checks the configuration.
func (c *AUAConfig) Validate(d *Dataset) error {
	if c.Seeds < 3 {
		return fmt.Errorf("anen: need at least 3 seed locations")
	}
	if c.Budget < c.Seeds {
		return fmt.Errorf("anen: budget %d below seed count %d", c.Budget, c.Seeds)
	}
	if c.Budget > d.Locations() {
		return fmt.Errorf("anen: budget %d exceeds %d locations", c.Budget, d.Locations())
	}
	if c.PerIteration < 1 || c.Subregions < 1 {
		return fmt.Errorf("anen: per-iteration and subregions must be positive")
	}
	return c.Params.Validate(d)
}

// Result is the outcome of one AUA or random-selection run.
type Result struct {
	// Locations are the computed analog locations in selection order.
	Locations []int
	// Values are the AnEn predictions at those locations.
	Values map[int]float64
	// Map is the final interpolated prediction over the full grid.
	Map []float64
	// RMSE is the error of Map against the dataset truth.
	RMSE float64
	// ErrHistory is the RMSE after each iteration (Fig 11d's convergence).
	ErrHistory []float64
	// Iterations performed.
	Iterations int
}

// SeedLocations draws the initial random locations; both methods are
// initialized with the same locations, as the paper does ("initializing
// both implementations using the same initial random locations").
func SeedLocations(d *Dataset, n int, rng *rand.Rand) []int {
	perm := rng.Perm(d.Locations())
	out := append([]int(nil), perm[:n]...)
	sort.Ints(out)
	return out
}

// gridRMSE computes the interpolated map and its RMSE against truth.
func gridRMSE(d *Dataset, values map[int]float64) ([]float64, float64) {
	ip := NewInterpolator(d.Cfg.W, d.Cfg.H)
	m := ip.Interpolate(values)
	var ss float64
	for i := range m {
		diff := m[i] - d.Truth[i]
		ss += diff * diff
	}
	return m, math.Sqrt(ss / float64(len(m)))
}

// refinementCandidates scores unsampled pixels by expected interpolation
// error: the spread of the nearest computed values times a distance factor.
// High scores mark sharp-gradient regions far from existing samples — the
// places AUA should refine.
func refinementCandidates(d *Dataset, values map[int]float64, rng *rand.Rand, want int) []int {
	samples := make([]sample, 0, len(values))
	for loc, v := range values {
		samples = append(samples, sample{
			x: float64(loc % d.Cfg.W), y: float64(loc / d.Cfg.W), v: v,
		})
	}
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].y != samples[j].y {
			return samples[i].y < samples[j].y
		}
		return samples[i].x < samples[j].x
	})
	idx := newBinIndex(samples, d.Cfg.W, d.Cfg.H)

	// Score a random subset of candidates (cheaper than all pixels and
	// stochastic enough to avoid degenerate ties).
	nCand := 4000
	if nCand > d.Locations() {
		nCand = d.Locations()
	}
	type scored struct {
		loc   int
		score float64
	}
	var cands []scored
	perm := rng.Perm(d.Locations())
	for _, loc := range perm[:nCand] {
		if _, have := values[loc]; have {
			continue
		}
		x, y := float64(loc%d.Cfg.W), float64(loc/d.Cfg.W)
		neigh := idx.nearest(x, y, 4)
		if len(neigh) < 2 {
			continue
		}
		var mean float64
		for _, s := range neigh {
			mean += s.v
		}
		mean /= float64(len(neigh))
		var spread float64
		for _, s := range neigh {
			dv := s.v - mean
			spread += dv * dv
		}
		spread = math.Sqrt(spread / float64(len(neigh)))
		dx, dy := neigh[0].x-x, neigh[0].y-y
		dist := math.Sqrt(dx*dx + dy*dy)
		cands = append(cands, scored{loc: loc, score: spread * (1 + 0.5*dist)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })

	// Greedy selection with a minimum separation so refinements spread
	// along the front rather than clustering on one pixel.
	minSep := math.Max(1.5, math.Sqrt(float64(d.Locations())/float64(len(values)+want))/3)
	var picked []int
	for _, c := range cands {
		if len(picked) == want {
			break
		}
		x, y := float64(c.loc%d.Cfg.W), float64(c.loc/d.Cfg.W)
		ok := true
		for _, p := range picked {
			px, py := float64(p%d.Cfg.W), float64(p/d.Cfg.W)
			if (px-x)*(px-x)+(py-y)*(py-y) < minSep*minSep {
				ok = false
				break
			}
		}
		if ok {
			picked = append(picked, c.loc)
		}
	}
	// Fill any shortfall randomly.
	for _, loc := range perm {
		if len(picked) == want {
			break
		}
		if _, have := values[loc]; have {
			continue
		}
		dup := false
		for _, p := range picked {
			if p == loc {
				dup = true
				break
			}
		}
		if !dup {
			picked = append(picked, loc)
		}
	}
	return picked
}

// RefineLocations exposes the adaptive refinement step for callers that
// drive the AUA loop themselves (the EnTK-encoded workflow of experiment 8
// makes the refinement decision inside a stage PostExec hook).
func RefineLocations(d *Dataset, values map[int]float64, rng *rand.Rand, want int) []int {
	return refinementCandidates(d, values, rng, want)
}

// Partition splits locations into m contiguous chunks — the sub-region
// tasks of Fig 5. Every location appears in exactly one chunk.
func Partition(locs []int, m int) [][]int {
	if m < 1 {
		m = 1
	}
	if m > len(locs) {
		m = len(locs)
	}
	out := make([][]int, 0, m)
	chunk := (len(locs) + m - 1) / m
	for i := 0; i < len(locs); i += chunk {
		end := i + chunk
		if end > len(locs) {
			end = len(locs)
		}
		out = append(out, locs[i:end])
	}
	return out
}

// RunAUA executes the full adaptive loop in-process (the EnTK-encoded
// version used by experiment 8 drives the same primitives through
// pipeline stages).
func RunAUA(d *Dataset, cfg AUAConfig, seed int64) (*Result, error) {
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	seeds := SeedLocations(d, cfg.Seeds, rng)
	return RunAUAFromSeeds(d, cfg, seeds, rng)
}

// RunAUAFromSeeds runs AUA starting from the given seed locations.
func RunAUAFromSeeds(d *Dataset, cfg AUAConfig, seeds []int, rng *rand.Rand) (*Result, error) {
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	res := &Result{Values: map[int]float64{}}
	compute := func(locs []int) {
		for _, part := range Partition(locs, cfg.Subregions) {
			for loc, v := range d.PredictBatch(part, cfg.Params) {
				res.Values[loc] = v
			}
		}
		res.Locations = append(res.Locations, locs...)
	}
	compute(seeds)
	m, rmse := gridRMSE(d, res.Values)
	res.ErrHistory = append(res.ErrHistory, rmse)
	for len(res.Locations) < cfg.Budget {
		res.Iterations++
		want := cfg.PerIteration
		if rem := cfg.Budget - len(res.Locations); want > rem {
			want = rem
		}
		next := refinementCandidates(d, res.Values, rng, want)
		if len(next) == 0 {
			break
		}
		compute(next)
		m, rmse = gridRMSE(d, res.Values)
		res.ErrHistory = append(res.ErrHistory, rmse)
		if cfg.ErrThreshold > 0 && rmse < cfg.ErrThreshold {
			break
		}
	}
	res.Map = m
	res.RMSE = res.ErrHistory[len(res.ErrHistory)-1]
	return res, nil
}

// RunRandomFromSeeds is the status-quo baseline: the same iterative loop as
// RunAUAFromSeeds, but with locations chosen uniformly at random each
// iteration.
func RunRandomFromSeeds(d *Dataset, cfg AUAConfig, seeds []int, rng *rand.Rand) (*Result, error) {
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	res := &Result{Values: map[int]float64{}}
	compute := func(locs []int) {
		for _, part := range Partition(locs, cfg.Subregions) {
			for loc, v := range d.PredictBatch(part, cfg.Params) {
				res.Values[loc] = v
			}
		}
		res.Locations = append(res.Locations, locs...)
	}
	compute(seeds)
	m, rmse := gridRMSE(d, res.Values)
	res.ErrHistory = append(res.ErrHistory, rmse)
	for len(res.Locations) < cfg.Budget {
		res.Iterations++
		want := cfg.PerIteration
		if rem := cfg.Budget - len(res.Locations); want > rem {
			want = rem
		}
		var next []int
		for _, loc := range rng.Perm(d.Locations()) {
			if len(next) == want {
				break
			}
			if _, have := res.Values[loc]; !have {
				next = append(next, loc)
			}
		}
		if len(next) == 0 {
			break
		}
		compute(next)
		m, rmse = gridRMSE(d, res.Values)
		res.ErrHistory = append(res.ErrHistory, rmse)
		if cfg.ErrThreshold > 0 && rmse < cfg.ErrThreshold {
			break
		}
	}
	res.Map = m
	res.RMSE = res.ErrHistory[len(res.ErrHistory)-1]
	return res, nil
}
