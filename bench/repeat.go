package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the contract at the repository root; -repeat reads the
// end-to-end bounds from it so the check and the gate cannot drift apart.
const benchmarkFile = "BENCHMARK.json"

func readBounds() (map[string]float64, error) {
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	bounds := make(map[string]float64, len(doc.EndToEnd))
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// spread is how far apart sets of runs of the same code landed, as a share
// of their median: the distance between the two values of a pair, or, from
// four sets up, between the first and third quartile (the acceptance
// procedure's statistic).
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	if len(xs) < 4 {
		s := sorted(xs)
		return (s[len(s)-1] - s[0]) / med
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// runRepeat runs the end-to-end suite n times, set i with seeds[i mod
// len(seeds)], prints every metric's values and spread per workload, and
// returns non-zero if a run was incorrect or a spread exceeds the metric's
// bound. The set-up time is reported but, as in the acceptance procedure,
// not held to its bound.
func runRepeat(o options, seeds []int64, n int) int {
	bounds, err := readBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for i := range workloads {
		w := &workloads[i]
		vals := map[string][]float64{}
		for set := 0; set < n; set++ {
			so := o
			so.seed = seeds[set%len(seeds)]
			rep, _, err := untraced(w, so)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !rep.Correct {
				rep.print(os.Stderr, nil)
				code = 1
			}
			for name, v := range rep.Metrics {
				vals[name] = append(vals[name], v.v)
			}
		}
		fmt.Printf("%s:\n", w.name)
		for _, d := range endToEnd {
			xs := vals[d.name]
			sp, bound := spread(xs), bounds[d.name]
			verdict := "ok"
			switch {
			case d.name == "setup_s":
				verdict = "not held"
			case math.IsNaN(sp) || sp > bound:
				verdict = "OVER"
				code = 1
			}
			fmt.Printf("  %-20s spread %6.2f%%  bound %5.1f%%  %-8s %v\n", d.name, 100*sp, 100*bound, verdict, xs)
		}
	}
	return code
}
