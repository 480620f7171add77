package anen

import (
	"fmt"
	"math"
	"sort"
)

// Params configures the analog search.
type Params struct {
	// K is the ensemble size (number of analogs).
	K int
	// Weights are per-variable weights in the similarity metric; nil means
	// uniform.
	Weights []float64
}

// DefaultParams returns the parameters used by the experiments.
func DefaultParams() Params { return Params{K: 12} }

// Validate checks params against a dataset.
func (p *Params) Validate(d *Dataset) error {
	if p.K < 1 || p.K > d.Cfg.Times {
		return fmt.Errorf("anen: K=%d out of range (1..%d)", p.K, d.Cfg.Times)
	}
	if p.Weights != nil && len(p.Weights) != d.Cfg.Vars {
		return fmt.Errorf("anen: %d weights for %d variables", len(p.Weights), d.Cfg.Vars)
	}
	return nil
}

// Similarity returns the Delle Monache-style distance between the current
// forecast and the historical forecast at time t, at one location: the
// weighted, spread-normalized Euclidean distance across variables.
func (d *Dataset) Similarity(t, loc int, p Params) float64 {
	sig := d.Sigmas()
	var dist float64
	for v := 0; v < d.Cfg.Vars; v++ {
		w := 1.0
		if p.Weights != nil {
			w = p.Weights[v]
		}
		diff := d.Forecasts[t][v][loc] - d.Current[v][loc]
		dist += w / sig[v] * math.Abs(diff)
	}
	return dist
}

// AnalogIndices returns the times of the K most similar historical
// forecasts at loc, most similar first.
func (d *Dataset) AnalogIndices(loc int, p Params) []int {
	type cand struct {
		t    int
		dist float64
	}
	cands := make([]cand, d.Cfg.Times)
	for t := 0; t < d.Cfg.Times; t++ {
		cands[t] = cand{t: t, dist: d.Similarity(t, loc, p)}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	k := p.K
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].t
	}
	return out
}

// Predict computes the AnEn point prediction at loc: the mean of the
// observations associated with the K most similar historical forecasts.
func (d *Dataset) Predict(loc int, p Params) float64 {
	idx := d.AnalogIndices(loc, p)
	var sum float64
	for _, t := range idx {
		sum += d.Observations[t][loc]
	}
	return sum / float64(len(idx))
}

// PredictBatch computes predictions for a set of locations; it is the unit
// of work of one EnTK sub-region task in the AUA workflow (Fig 5's "Compute
// AnEn for subregion m").
func (d *Dataset) PredictBatch(locs []int, p Params) map[int]float64 {
	out := make(map[int]float64, len(locs))
	for _, loc := range locs {
		out[loc] = d.Predict(loc, p)
	}
	return out
}
