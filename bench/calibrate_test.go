package main

import (
	"testing"
	"time"
)

// TestNormalisationScalesTimingOnly: dividing by the machine slowdown moves
// every timing metric by exactly that factor and leaves the count alone.
func TestNormalisationScalesTimingOnly(t *testing.T) {
	p := &pass{nTasks: 8, setupS: []float64{2}, wallS: []float64{4}, allocs: []float64{7}, turnUS: []float64{10}}
	w := &workload{tailPct: 50}
	raw, norm := p.endToEnd(w, 1), p.endToEnd(w, 2)
	for name, want := range map[string]float64{
		"setup_s": 0.5, "tasks_per_s": 2, "allocs_per_task": 1, "turnaround_p50_us": 0.5, "turnaround_tail_us": 0.5,
	} {
		if got := norm[name].v / raw[name].v; got != want {
			t.Errorf("%s: normalised ÷ raw = %v at slowdown 2, want %v", name, got, want)
		}
	}
	if len(raw) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics rendered, %d declared", len(raw), len(endToEnd))
	}
}

// TestCalibrationKeepsItsShare: topUp always samples, stops once the
// calibrator has had calShare of the pass, and a pass that never calibrated
// is not scaled.
func TestCalibrationKeepsItsShare(t *testing.T) {
	var c calibration
	if got := c.slowdown(); got != 1 {
		t.Errorf("slowdown of an empty calibration = %v, want 1", got)
	}
	c.topUp(0)
	if len(c.samples) != 1 {
		t.Errorf("topUp(0) took %d samples, want 1", len(c.samples))
	}
	busy := 4 * c.spent
	c.topUp(busy)
	if float64(c.spent) < calShare*float64(busy+c.spent) {
		t.Errorf("after topUp the calibrator has had %v beside %v busy, under its %v share", c.spent, busy, calShare)
	}
	if want := median(c.samples) / calReferenceS; c.slowdown() != want {
		t.Errorf("slowdown = %v, want median ÷ reference = %v", c.slowdown(), want)
	}
	if c.spent > 2*time.Second {
		t.Errorf("%d samples took %v: the calibrator is far off its %v s reference", len(c.samples), c.spent, calReferenceS)
	}
}
