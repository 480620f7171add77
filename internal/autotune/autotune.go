// Package autotune implements the paper's future-work capability (ii),
// "adaptive execution strategies to enable optimal resource utilization",
// for the concrete case its §IV-C1 works out by hand: choosing the task
// concurrency of a heavy-I/O ensemble. The paper's conclusion — "On Titan,
// forward simulations are best executed with 2⁴ concurrent tasks" — was
// read off Fig 10 manually; this package automates the sweep-and-decide.
package autotune

import (
	"errors"
	"fmt"
	"io"
)

// ProbeResult is one measurement of an ensemble executed at a given
// concurrency.
type ProbeResult struct {
	// MakespanS is the task-execution makespan in (virtual) seconds.
	MakespanS float64
	// Attempts counts task attempts, including resubmissions.
	Attempts int
	// Tasks is the ensemble size.
	Tasks int
}

// FailureRate returns the fraction of attempts that failed.
func (p ProbeResult) FailureRate() float64 {
	if p.Attempts == 0 {
		return 0
	}
	return float64(p.Attempts-p.Tasks) / float64(p.Attempts)
}

// Probe executes an ensemble at the given concurrency and reports the
// outcome. The experiments package provides a Fig 10-backed probe; tests
// provide fakes.
type Probe func(concurrency int) (ProbeResult, error)

// Config tunes the sweep.
type Config struct {
	// MinConcurrency and MaxConcurrency bound the sweep; candidates are
	// powers of two between them (inclusive).
	MinConcurrency int
	MaxConcurrency int
	// FailureTolerance is the acceptable failure rate (default 0: the
	// paper's operating point is strictly failure-free).
	FailureTolerance float64
	// StopOnFailure ends the sweep at the first candidate exceeding the
	// tolerance (the contention model is monotone, so probing further
	// concurrency only wastes resources). Default true via NewConfig.
	StopOnFailure bool
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// NewConfig returns the default sweep configuration.
func NewConfig(min, max int) Config {
	return Config{MinConcurrency: min, MaxConcurrency: max, StopOnFailure: true}
}

// Observation is one probed operating point.
type Observation struct {
	Concurrency int
	Result      ProbeResult
	FailureRate float64
}

// Recommendation is the tuner's outcome.
type Recommendation struct {
	// Concurrency is the recommended operating point: the highest probed
	// concurrency whose failure rate is within tolerance.
	Concurrency int
	// Observations holds every probed point, in sweep order.
	Observations []Observation
	// SpeedupVsSerial is the makespan improvement of the recommended point
	// over the lowest probed concurrency.
	SpeedupVsSerial float64
}

// Errors.
var (
	ErrNoCandidates = errors.New("autotune: no concurrency candidates in range")
	ErrAllFailing   = errors.New("autotune: every probed concurrency exceeds the failure tolerance")
)

// FindConcurrency sweeps power-of-two concurrencies and recommends the
// highest one whose failure rate stays within tolerance.
func FindConcurrency(cfg Config, probe Probe) (*Recommendation, error) {
	if probe == nil {
		return nil, errors.New("autotune: nil probe")
	}
	if cfg.MinConcurrency < 1 {
		cfg.MinConcurrency = 1
	}
	if cfg.MaxConcurrency < cfg.MinConcurrency {
		return nil, ErrNoCandidates
	}
	var candidates []int
	for c := cfg.MinConcurrency; c <= cfg.MaxConcurrency; c *= 2 {
		candidates = append(candidates, c)
	}
	rec := &Recommendation{Concurrency: -1}
	for _, c := range candidates {
		res, err := probe(c)
		if err != nil {
			return nil, fmt.Errorf("autotune: probe at concurrency %d: %w", c, err)
		}
		obs := Observation{
			Concurrency: c,
			Result:      res,
			FailureRate: res.FailureRate(),
		}
		rec.Observations = append(rec.Observations, obs)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "autotune: c=%d makespan=%.1fs failure_rate=%.2f\n",
				c, res.MakespanS, obs.FailureRate)
		}
		if obs.FailureRate <= cfg.FailureTolerance {
			rec.Concurrency = c
		} else if cfg.StopOnFailure {
			break
		}
	}
	if rec.Concurrency < 0 {
		return nil, ErrAllFailing
	}
	first := rec.Observations[0].Result.MakespanS
	for _, o := range rec.Observations {
		if o.Concurrency == rec.Concurrency && o.Result.MakespanS > 0 {
			rec.SpeedupVsSerial = first / o.Result.MakespanS
		}
	}
	return rec, nil
}
