package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(m, 5) {
		t.Fatalf("mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty min/max not 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBox(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 100})
	if b.Min != 1 || b.Max != 100 || b.Median != 3 {
		t.Fatalf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("quartiles = %v/%v", b.Q1, b.Q3)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 2) || !almost(fit.Intercept, 3) || !almost(fit.R2, 1) {
		t.Fatalf("fit = %+v", fit)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("vertical line accepted")
	}
	fit, err := FitLine([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil || !almost(fit.Slope, 0) || !almost(fit.R2, 1) {
		t.Fatalf("horizontal fit = %+v err=%v", fit, err)
	}
}

func TestSpeedup(t *testing.T) {
	s := Speedup([]float64{100, 50, 25})
	if !almost(s[0], 1) || !almost(s[1], 2) || !almost(s[2], 4) {
		t.Fatalf("speedup = %v", s)
	}
	if Speedup(nil) != nil {
		t.Fatal("empty speedup not nil")
	}
}

func TestRMSE(t *testing.T) {
	if r := RMSE([]float64{1, 2}, []float64{1, 2}); !almost(r, 0) {
		t.Fatalf("rmse identical = %v", r)
	}
	if r := RMSE([]float64{0, 0}, []float64{3, 4}); !almost(r, math.Sqrt(12.5)) {
		t.Fatalf("rmse = %v", r)
	}
	if !math.IsNaN(RMSE([]float64{1}, []float64{1, 2})) {
		t.Fatal("length mismatch not NaN")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []int16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		return pa <= pb && pa >= Min(xs) && pb <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Box quartiles are ordered min <= q1 <= median <= q3 <= max.
func TestBoxOrderedProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		b := Box(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies between min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: sorting input does not change any percentile.
func TestPercentileSortInvariantProperty(t *testing.T) {
	f := func(raw []int16, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		pp := float64(p % 101)
		return almost(Percentile(xs, pp), Percentile(sorted, pp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
