package seismic

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/workload"
)

func demoModel() *Model {
	m := NewModel(60, 60, 10, 1500)
	return m
}

func demoConfig() SimConfig {
	return SimConfig{NT: 200, DT: 0.004, DampWidth: 8, SnapshotEvery: 4}
}

func TestModelValidate(t *testing.T) {
	if err := demoModel().Validate(); err != nil {
		t.Fatal(err)
	}
	small := NewModel(4, 4, 10, 1500)
	if err := small.Validate(); err == nil {
		t.Fatal("tiny grid accepted")
	}
	neg := demoModel()
	neg.V[3*neg.NX+3] = -5
	if err := neg.Validate(); err == nil {
		t.Fatal("negative velocity accepted")
	}
	badDX := demoModel()
	badDX.DX = 0
	if err := badDX.Validate(); err == nil {
		t.Fatal("zero spacing accepted")
	}
}

func TestCFLRejected(t *testing.T) {
	m := demoModel()
	cfg := SimConfig{NT: 10, DT: 0.01} // 1500*0.01/10 = 1.5 > 0.7
	if err := cfg.Validate(m); err == nil {
		t.Fatal("unstable configuration accepted")
	}
}

func TestForwardProducesSignal(t *testing.T) {
	m := demoModel()
	src := Source{IX: 30, IZ: 10, Freq: 10}
	recs := []Receiver{{IX: 10, IZ: 5}, {IX: 50, IZ: 5}}
	res, err := Forward(m, src, recs, demoConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r, tr := range res.Seismograms {
		var energy float64
		for _, v := range tr {
			energy += v * v
		}
		if energy == 0 {
			t.Fatalf("receiver %d recorded nothing", r)
		}
		for _, v := range tr {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("receiver %d trace contains NaN/Inf", r)
			}
		}
	}
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots stored")
	}
}

func TestForwardStability(t *testing.T) {
	// Field must remain bounded: the sponge absorbs energy and the CFL
	// condition holds, so no exponential blow-up.
	m := demoModel()
	src := Source{IX: 30, IZ: 30, Freq: 10}
	recs := []Receiver{{IX: 30, IZ: 8}}
	cfg := demoConfig()
	cfg.NT = 600
	res, err := Forward(m, src, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var maxAmp float64
	for _, v := range res.Seismograms[0] {
		if a := math.Abs(v); a > maxAmp {
			maxAmp = a
		}
	}
	tail := res.Seismograms[0][cfg.NT-50:]
	var tailMax float64
	for _, v := range tail {
		if a := math.Abs(v); a > tailMax {
			tailMax = a
		}
	}
	if tailMax > maxAmp {
		t.Fatalf("late-time amplitude %v exceeds peak %v: instability", tailMax, maxAmp)
	}
}

func TestTravelTimeMatchesVelocity(t *testing.T) {
	// A first arrival should appear near distance/velocity.
	m := NewModel(100, 40, 10, 2000)
	src := Source{IX: 10, IZ: 20, Freq: 15}
	rec := Receiver{IX: 90, IZ: 20} // 800 m away
	cfg := SimConfig{NT: 400, DT: 0.002, DampWidth: 8}
	res, err := Forward(m, src, recs1(rec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Seismograms[0]
	var peak float64
	for _, v := range tr {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	first := -1
	for i, v := range tr {
		if math.Abs(v) > 0.05*peak {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no arrival detected")
	}
	arrival := float64(first) * cfg.DT
	// Expected ~0.4 s plus the wavelet onset delay (~1.2/f = 0.08 s).
	expected := 800.0/2000.0 + 0.08
	if arrival < expected*0.6 || arrival > expected*1.6 {
		t.Fatalf("first arrival at %.3f s, expected ≈%.3f s", arrival, expected)
	}
}

func recs1(r Receiver) []Receiver { return []Receiver{r} }

func TestSourceValidation(t *testing.T) {
	m := demoModel()
	if _, err := Forward(m, Source{IX: 0, IZ: 0, Freq: 10}, nil, demoConfig()); err == nil {
		t.Fatal("boundary source accepted")
	}
	if _, err := Forward(m, Source{IX: 30, IZ: 30, Freq: 10},
		[]Receiver{{IX: -1, IZ: 0}}, demoConfig()); err == nil {
		t.Fatal("out-of-grid receiver accepted")
	}
}

func TestMisfitZeroForIdentical(t *testing.T) {
	a := []Seismogram{{1, 2, 3}, {4, 5, 6}}
	m, err := Misfit(a, a)
	if err != nil || m != 0 {
		t.Fatalf("misfit = %v err = %v", m, err)
	}
	b := []Seismogram{{1, 2, 4}, {4, 5, 6}}
	m2, _ := Misfit(a, b)
	if m2 <= 0 {
		t.Fatal("different traces gave zero misfit")
	}
	if _, err := Misfit(a, []Seismogram{{1}}); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
}

func TestAdjointSourcesAreReversedResiduals(t *testing.T) {
	obs := []Seismogram{{1, 2, 3}}
	syn := []Seismogram{{2, 2, 5}}
	adj, err := AdjointSources(obs, syn)
	if err != nil {
		t.Fatal(err)
	}
	want := Seismogram{2, 0, 1} // residual (1,0,2) reversed
	for i := range want {
		if adj[0][i] != want[i] {
			t.Fatalf("adjoint source = %v, want %v", adj[0], want)
		}
	}
}

func TestBandpassSmooths(t *testing.T) {
	spiky := []Seismogram{{0, 0, 10, 0, 0}}
	f := Bandpass(spiky, 1)
	if f[0][2] >= 10 {
		t.Fatal("filter did not attenuate the spike")
	}
	var sumIn, sumOut float64
	for i := range spiky[0] {
		sumIn += spiky[0][i]
		sumOut += f[0][i]
	}
	if math.Abs(sumIn-sumOut) > 1e-9 {
		t.Fatalf("boxcar not conservative: %v vs %v", sumIn, sumOut)
	}
	// halfWidth<1 is the identity.
	id := Bandpass(spiky, 0)
	for i := range spiky[0] {
		if id[0][i] != spiky[0][i] {
			t.Fatal("identity filter modified data")
		}
	}
}

func TestKernelSensitiveToAnomaly(t *testing.T) {
	// The summed sensitivity kernel must be non-trivial when observed and
	// synthetic models differ.
	trueM := demoModel()
	trueM.AddGaussianAnomaly(30, 30, 5, 200)
	cur := demoModel()
	src := Source{IX: 30, IZ: 8, Freq: 10}
	recs := []Receiver{{IX: 10, IZ: 6}, {IX: 50, IZ: 6}}
	cfg := demoConfig()

	obsRun, err := Forward(trueM, src, recs, SimConfig{NT: cfg.NT, DT: cfg.DT, DampWidth: cfg.DampWidth})
	if err != nil {
		t.Fatal(err)
	}
	synRun, err := Forward(cur, src, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adjSrc, err := AdjointSources(obsRun.Seismograms, synRun.Seismograms)
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := Adjoint(cur, recs, adjSrc, synRun, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var energy float64
	for _, k := range kernel {
		energy += k * k
	}
	if energy == 0 {
		t.Fatal("kernel is identically zero")
	}
}

func TestSumKernels(t *testing.T) {
	s, err := SumKernels([][]float64{{1, 2}, {3, 4}})
	if err != nil || s[0] != 4 || s[1] != 6 {
		t.Fatalf("sum = %v err = %v", s, err)
	}
	if _, err := SumKernels(nil); err == nil {
		t.Fatal("empty kernel list accepted")
	}
	if _, err := SumKernels([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged kernels accepted")
	}
}

func TestUpdateModelBoundsStep(t *testing.T) {
	m := demoModel()
	kernel := make([]float64, len(m.V))
	kernel[1830] = 5
	up, err := UpdateModel(m, kernel, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	maxChange := 0.0
	for i := range m.V {
		if d := math.Abs(up.V[i] - m.V[i]); d > maxChange {
			maxChange = d
		}
	}
	if maxChange == 0 {
		t.Fatal("update did nothing")
	}
	if maxChange > 0.05*1500+1e-9 {
		t.Fatalf("max change %v exceeds 5%% of mean velocity", maxChange)
	}
}

func TestInversionReducesMisfit(t *testing.T) {
	// The headline property of the use case: iterating the adjoint
	// workflow reduces the data misfit.
	trueM := NewModel(48, 48, 10, 1500)
	trueM.AddGaussianAnomaly(24, 24, 6, 180)
	current := NewModel(48, 48, 10, 1500)
	events := []Source{
		{IX: 12, IZ: 6, Freq: 10},
		{IX: 36, IZ: 6, Freq: 10},
	}
	recs := []Receiver{
		{IX: 6, IZ: 4}, {IX: 16, IZ: 4}, {IX: 24, IZ: 4},
		{IX: 32, IZ: 4}, {IX: 42, IZ: 4},
	}
	cfg := SimConfig{NT: 180, DT: 0.004, DampWidth: 6, SnapshotEvery: 3}

	var misfits []float64
	m := current
	for iter := 0; iter < 3; iter++ {
		next, mf, err := InvertStep(m, trueM, events, recs, cfg, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		misfits = append(misfits, mf)
		m = next
	}
	if misfits[len(misfits)-1] >= misfits[0] {
		t.Fatalf("misfit did not decrease: %v", misfits)
	}
}

func TestSpecfemKernel(t *testing.T) {
	env := &workload.Env{Clock: vclock.NewScaled(time.Microsecond), Compute: true}
	res, err := Kernel{}.Run(context.Background(),
		workload.Spec{Duration: 10 * time.Second}, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d: %s", res.ExitCode, res.Output)
	}
}

func TestForwardEnsembleShape(t *testing.T) {
	p := ProductionForwardParams()
	pipes := NewForwardEnsemble(8, p)
	if len(pipes) != 8 {
		t.Fatalf("pipelines = %d", len(pipes))
	}
	for _, pipe := range pipes {
		if pipe.StageCount() != 1 || pipe.TaskCount() != 1 {
			t.Fatal("forward pipeline should be a single 1-task stage")
		}
		task := pipe.Stages()[0].Tasks()[0]
		if task.CPUReqs.Cores() != 6144 {
			t.Fatalf("task cores = %d, want 6144 (384 Titan nodes)", task.CPUReqs.Cores())
		}
		if task.IOLoad <= 0 {
			t.Fatal("forward task must load the shared filesystem")
		}
		if len(task.InputStaging) != 1 || task.InputStaging[0].Bytes != 40<<20 {
			t.Fatal("forward task must stage 40 MB of input")
		}
		if err := task.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
