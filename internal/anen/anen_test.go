package anen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func smallConfig() GenConfig {
	return GenConfig{W: 32, H: 32, Vars: 3, Times: 60, Modes: 3,
		FrontSharpness: 12, NoiseSD: 0.08}
}

func genSmall(t *testing.T, seed int64) *Dataset {
	t.Helper()
	d, err := Generate(smallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateShapes(t *testing.T) {
	d := genSmall(t, 1)
	if d.Locations() != 1024 {
		t.Fatalf("locations = %d", d.Locations())
	}
	if len(d.Forecasts) != 60 || len(d.Forecasts[0]) != 3 || len(d.Forecasts[0][0]) != 1024 {
		t.Fatal("forecast archive has wrong shape")
	}
	if len(d.Observations) != 60 || len(d.Truth) != 1024 || len(d.Current) != 3 {
		t.Fatal("observations/current/truth have wrong shape")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1 := genSmall(t, 7)
	d2 := genSmall(t, 7)
	if d1.Truth[100] != d2.Truth[100] || d1.Forecasts[5][1][200] != d2.Forecasts[5][1][200] {
		t.Fatal("same seed produced different datasets")
	}
	d3 := genSmall(t, 8)
	if d1.Truth[100] == d3.Truth[100] {
		t.Fatal("different seeds produced identical truth")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{W: 1, H: 1}, 0); err == nil {
		t.Fatal("degenerate grid accepted")
	}
	if _, err := Generate(GenConfig{W: 10, H: 10, Vars: 0, Times: 50, Modes: 1}, 0); err == nil {
		t.Fatal("zero variables accepted")
	}
}

func TestSigmasPositive(t *testing.T) {
	d := genSmall(t, 2)
	for v, s := range d.Sigmas() {
		if s <= 0 || math.IsNaN(s) {
			t.Fatalf("sigma[%d] = %v", v, s)
		}
	}
}

func TestAnalogIndicesSortedBySimilarity(t *testing.T) {
	d := genSmall(t, 3)
	p := Params{K: 10}
	idx := d.AnalogIndices(500, p)
	if len(idx) != 10 {
		t.Fatalf("got %d analogs", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if d.Similarity(idx[i-1], 500, p) > d.Similarity(idx[i], 500, p) {
			t.Fatal("analogs not sorted by similarity")
		}
	}
}

func TestPredictBeatsClimatology(t *testing.T) {
	// The AnEn prediction at a location must beat the archive-mean
	// (climatology) prediction on average — otherwise the analog search is
	// doing nothing.
	d := genSmall(t, 4)
	p := DefaultParams()
	rng := rand.New(rand.NewSource(9))
	var anenErr, climErr float64
	n := 150
	for i := 0; i < n; i++ {
		loc := rng.Intn(d.Locations())
		pred := d.Predict(loc, p)
		anenErr += math.Abs(pred - d.Truth[loc])
		var clim float64
		for t := 0; t < d.Cfg.Times; t++ {
			clim += d.Observations[t][loc]
		}
		clim /= float64(d.Cfg.Times)
		climErr += math.Abs(clim - d.Truth[loc])
	}
	if anenErr >= climErr {
		t.Fatalf("AnEn MAE %.4f not better than climatology %.4f", anenErr/float64(n), climErr/float64(n))
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	d := genSmall(t, 6)
	p := DefaultParams()
	locs := []int{5, 99, 512}
	batch := d.PredictBatch(locs, p)
	for _, loc := range locs {
		if batch[loc] != d.Predict(loc, p) {
			t.Fatalf("batch and single predictions differ at %d", loc)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	d := genSmall(t, 1)
	bad := []Params{{K: 0}, {K: 1000}, {K: 5, Weights: []float64{1}}}
	for i, p := range bad {
		if err := p.Validate(d); err == nil {
			t.Fatalf("bad params %d accepted", i)
		}
	}
	good := Params{K: 5, Weights: []float64{1, 2, 3}}
	if err := good.Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestInterpolateExactAtSamples(t *testing.T) {
	ip := NewInterpolator(16, 16)
	values := map[int]float64{0: 1, 40: 5, 255: -2}
	m := ip.Interpolate(values)
	for loc, v := range values {
		if m[loc] != v {
			t.Fatalf("interpolation not exact at sample %d: %v != %v", loc, m[loc], v)
		}
	}
	if len(m) != 256 {
		t.Fatalf("map size = %d", len(m))
	}
}

func TestInterpolateBoundedByExtremes(t *testing.T) {
	ip := NewInterpolator(16, 16)
	values := map[int]float64{3: 2, 77: 4, 200: 9, 255: 6}
	m := ip.Interpolate(values)
	for loc, v := range m {
		if v < 2-1e-9 || v > 9+1e-9 {
			t.Fatalf("IDW out of sample range at %d: %v", loc, v)
		}
	}
}

func TestInterpolateConstantField(t *testing.T) {
	ip := NewInterpolator(8, 8)
	values := map[int]float64{1: 3, 30: 3, 60: 3}
	for loc, v := range ip.Interpolate(values) {
		if math.Abs(v-3) > 1e-9 {
			t.Fatalf("constant field not reproduced at %d: %v", loc, v)
		}
	}
}

func TestPartitionCoversAll(t *testing.T) {
	locs := []int{1, 2, 3, 4, 5, 6, 7}
	parts := Partition(locs, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	seen := map[int]bool{}
	for _, p := range parts {
		for _, l := range p {
			if seen[l] {
				t.Fatalf("location %d in two partitions", l)
			}
			seen[l] = true
		}
	}
	if len(seen) != len(locs) {
		t.Fatal("partition lost locations")
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(n uint8, m uint8) bool {
		locs := make([]int, int(n)%64)
		for i := range locs {
			locs[i] = i
		}
		if len(locs) == 0 {
			return true
		}
		parts := Partition(locs, int(m)%10+1)
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		return total == len(locs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAUARespectsBudget(t *testing.T) {
	d := genSmall(t, 11)
	cfg := AUAConfig{Seeds: 20, PerIteration: 15, Budget: 80, Subregions: 4, Params: DefaultParams()}
	res, err := RunAUA(d, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Locations) != 80 {
		t.Fatalf("used %d locations, budget 80", len(res.Locations))
	}
	if len(res.Map) != d.Locations() {
		t.Fatal("no final map")
	}
	seen := map[int]bool{}
	for _, l := range res.Locations {
		if seen[l] {
			t.Fatalf("location %d computed twice", l)
		}
		seen[l] = true
	}
}

func TestAUAErrorDecreases(t *testing.T) {
	d := genSmall(t, 12)
	cfg := AUAConfig{Seeds: 20, PerIteration: 20, Budget: 160, Subregions: 4, Params: DefaultParams()}
	res, err := RunAUA(d, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := res.ErrHistory[0]
	last := res.ErrHistory[len(res.ErrHistory)-1]
	if last >= first {
		t.Fatalf("AUA error did not decrease: %.4f -> %.4f", first, last)
	}
}

func TestAUABeatsRandomOnAverage(t *testing.T) {
	// The paper's central claim for the use case (Fig 11): at an equal
	// location budget, adaptive selection converges to lower error than
	// random selection. Averaged over repetitions to absorb noise.
	cfg := AUAConfig{Seeds: 24, PerIteration: 24, Budget: 168, Subregions: 4, Params: DefaultParams()}
	var auaErrs, rndErrs []float64
	for rep := 0; rep < 6; rep++ {
		d, err := Generate(smallConfig(), 100+int64(rep))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(rep)))
		seeds := SeedLocations(d, cfg.Seeds, rng)
		aua, err := RunAUAFromSeeds(d, cfg, seeds, rand.New(rand.NewSource(int64(rep))))
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := RunRandomFromSeeds(d, cfg, seeds, rand.New(rand.NewSource(int64(rep))))
		if err != nil {
			t.Fatal(err)
		}
		auaErrs = append(auaErrs, aua.RMSE)
		rndErrs = append(rndErrs, rnd.RMSE)
	}
	if stats.Mean(auaErrs) >= stats.Mean(rndErrs) {
		t.Fatalf("AUA mean RMSE %.4f not below random %.4f", stats.Mean(auaErrs), stats.Mean(rndErrs))
	}
}

func TestErrThresholdStopsEarly(t *testing.T) {
	d := genSmall(t, 13)
	cfg := AUAConfig{Seeds: 20, PerIteration: 20, Budget: 400, Subregions: 4,
		Params: DefaultParams(), ErrThreshold: 1e9} // absurdly lax: stop immediately
	res, err := RunAUA(d, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Locations) >= 400 {
		t.Fatal("threshold did not stop the loop early")
	}
}

func TestSeedLocationsDistinct(t *testing.T) {
	d := genSmall(t, 14)
	rng := rand.New(rand.NewSource(5))
	locs := SeedLocations(d, 50, rng)
	seen := map[int]bool{}
	for _, l := range locs {
		if seen[l] {
			t.Fatal("duplicate seed location")
		}
		seen[l] = true
	}
	if len(locs) != 50 {
		t.Fatalf("got %d seeds", len(locs))
	}
}

func TestAUAConfigValidate(t *testing.T) {
	d := genSmall(t, 15)
	bad := []AUAConfig{
		{Seeds: 1, Budget: 10, PerIteration: 1, Subregions: 1, Params: DefaultParams()},
		{Seeds: 10, Budget: 5, PerIteration: 1, Subregions: 1, Params: DefaultParams()},
		{Seeds: 10, Budget: 1e6, PerIteration: 1, Subregions: 1, Params: DefaultParams()},
		{Seeds: 10, Budget: 20, PerIteration: 0, Subregions: 1, Params: DefaultParams()},
	}
	for i, c := range bad {
		if err := c.Validate(d); err == nil {
			t.Fatalf("bad AUA config %d accepted", i)
		}
	}
}
