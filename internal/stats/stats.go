// Package stats provides the summary statistics the experiment harness uses
// to render the paper's figures: means, percentiles,
// box-plot five-number summaries (Fig 11d) and least-squares fits used to
// check scaling slopes (Figs 8-10).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest value (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BoxPlot is a five-number summary, the representation of Fig 11(d).
type BoxPlot struct {
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Box computes the five-number summary of xs.
func Box(xs []float64) BoxPlot {
	return BoxPlot{
		Min:    Min(xs),
		Q1:     Percentile(xs, 25),
		Median: Percentile(xs, 50),
		Q3:     Percentile(xs, 75),
		Max:    Max(xs),
	}
}

// LinearFit is a least-squares line y = Slope*x + Intercept with the
// coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// ErrBadFit reports degenerate regression input.
var ErrBadFit = errors.New("stats: need at least two distinct x values")

// FitLine computes the least-squares line through (xs, ys).
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, ErrBadFit
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrBadFit
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// Speedup converts a series of times into speedups relative to the first
// entry: out[i] = ts[0]/ts[i].
func Speedup(ts []float64) []float64 {
	if len(ts) == 0 || ts[0] == 0 {
		return nil
	}
	out := make([]float64, len(ts))
	for i, t := range ts {
		if t == 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ts[0] / t
	}
	return out
}

// RMSE returns the root-mean-square error between two equal-length series.
func RMSE(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a)))
}
