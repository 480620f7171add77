package fsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
)

func newFS(t *testing.T, spec Spec) *FS {
	t.Helper()
	fs, err := New(spec, vclock.NewScaled(time.Microsecond), 42)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestSpecValidation(t *testing.T) {
	good := OLCFLustre()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{},
		{Name: "x", StageRate: 0},
		{Name: "x", StageRate: 1, MetadataOpLatency: -time.Second},
		{Name: "x", StageRate: 1, FailureCap: 2},
		{Name: "x", StageRate: 1, FailureSlope: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestStageDurationWeakScalingCalibration(t *testing.T) {
	// The paper's weak-scaling staging: 3 soft links + one 550 KB file per
	// task; 512 tasks take ≈11 s and 4,096 tasks ≈88 s with one stager.
	fs := newFS(t, OLCFLustre())
	perTask := fs.StageDuration([]File{
		{Link: true}, {Link: true}, {Link: true},
		{Bytes: 550 * 1024},
	})
	total512 := time.Duration(512) * perTask
	if total512 < 9*time.Second || total512 > 13*time.Second {
		t.Fatalf("512-task staging = %v, want ≈11 s", total512)
	}
	total4096 := time.Duration(4096) * perTask
	if total4096 < 72*time.Second || total4096 > 104*time.Second {
		t.Fatalf("4096-task staging = %v, want ≈88 s", total4096)
	}
	// Linearity: 8x the tasks, 8x the time.
	if total4096 != 8*total512 {
		t.Fatalf("staging not linear: %v vs 8*%v", total4096, total512)
	}
}

func TestLinksCostOnlyMetadata(t *testing.T) {
	fs := newFS(t, OLCFLustre())
	link := fs.StageDuration([]File{{Link: true, Bytes: 1 << 30}})
	if link != fs.Spec().MetadataOpLatency {
		t.Fatalf("link staging = %v, want metadata latency %v", link, fs.Spec().MetadataOpLatency)
	}
}

func TestStageSleepsAndAccounts(t *testing.T) {
	spec := OLCFLustre()
	fs, err := New(spec, vclock.NewScaled(time.Microsecond), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := fs.Stage(vclock.NewScaled(time.Microsecond), []File{{Bytes: 1e6}})
	if d <= 0 {
		t.Fatal("zero stage duration")
	}
	s := fs.Stats()
	if s.BytesStaged != 1e6 || s.StageCalls != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestNoFailuresAtOrBelowThreshold(t *testing.T) {
	fs := newFS(t, OLCFLustre())
	tok := fs.AcquireLoad(16) // exactly the threshold
	defer tok.Release()
	if p := fs.FailureProbability(); p != 0 {
		t.Fatalf("failure probability at threshold = %v, want 0", p)
	}
	for i := 0; i < 1000; i++ {
		if fs.SampleFailure() {
			t.Fatal("sampled a failure at threshold load")
		}
	}
}

func TestFailureProbabilityAtDoubleThreshold(t *testing.T) {
	fs := newFS(t, OLCFLustre())
	tok := fs.AcquireLoad(32)
	defer tok.Release()
	p := fs.FailureProbability()
	// Calibrated to 0.5 at double the threshold: the paper reports that 50%
	// of the tasks failed when running 2^5 concurrent simulations.
	if p < 0.45 || p > 0.55 {
		t.Fatalf("p(32 writers) = %v, want ≈0.5", p)
	}
	var failures int
	const draws = 2000
	for i := 0; i < draws; i++ {
		if fs.SampleFailure() {
			failures++
		}
	}
	rate := float64(failures) / draws
	if rate < p-0.05 || rate > p+0.05 {
		t.Fatalf("empirical failure rate %v far from p=%v", rate, p)
	}
}

func TestFailureProbabilityCapped(t *testing.T) {
	fs := newFS(t, OLCFLustre())
	tok := fs.AcquireLoad(1e6)
	defer tok.Release()
	if p := fs.FailureProbability(); p != fs.Spec().FailureCap {
		t.Fatalf("p = %v, want cap %v", p, fs.Spec().FailureCap)
	}
}

func TestLoadTokenRelease(t *testing.T) {
	fs := newFS(t, OLCFLustre())
	t1 := fs.AcquireLoad(10)
	t2 := fs.AcquireLoad(10)
	if fs.Load() != 20 {
		t.Fatalf("load = %v", fs.Load())
	}
	t1.Release()
	t1.Release() // double release is safe
	if fs.Load() != 10 {
		t.Fatalf("load after release = %v", fs.Load())
	}
	t2.Release()
	if fs.Load() != 0 {
		t.Fatalf("load after all released = %v", fs.Load())
	}
	if fs.Stats().PeakLoad != 20 {
		t.Fatalf("peak load = %v", fs.Stats().PeakLoad)
	}
}

func TestLoadTokenPeakSeesStorm(t *testing.T) {
	fs := newFS(t, OLCFLustre())
	first := fs.AcquireLoad(1)
	var toks []*LoadToken
	for i := 0; i < 31; i++ {
		toks = append(toks, fs.AcquireLoad(1))
	}
	// The first writer co-existed with all 32: its peak must be 32 even
	// after the others release.
	for _, tok := range toks {
		tok.Release()
	}
	if got := first.Peak(); got != 32 {
		t.Fatalf("peak = %v, want 32", got)
	}
	if fs.Load() != 1 {
		t.Fatalf("load = %v", fs.Load())
	}
	// Sampling at the peak must behave like the full storm.
	if p := fs.probAt(first.Peak()); p < 0.45 || p > 0.55 {
		t.Fatalf("p(peak) = %v, want ≈0.5", p)
	}
	first.Release()
}

func TestSampleFailureAtZeroLoad(t *testing.T) {
	fs := newFS(t, OLCFLustre())
	for i := 0; i < 100; i++ {
		if fs.SampleFailureAt(10) {
			t.Fatal("failure below threshold")
		}
	}
}

// Property: staging duration is additive over file lists.
func TestStageDurationAdditiveProperty(t *testing.T) {
	fs := newFS(t, OLCFLustre())
	f := func(sizes []uint32) bool {
		var files []File
		var sum time.Duration
		for i, s := range sizes {
			f := File{Bytes: int64(s), Link: i%3 == 0}
			files = append(files, f)
			sum += fs.StageDuration([]File{f})
		}
		got := fs.StageDuration(files)
		diff := got - sum
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Duration(len(sizes)) // rounding tolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: failure probability is monotone non-decreasing in load.
func TestFailureProbabilityMonotoneProperty(t *testing.T) {
	fs := newFS(t, OLCFLustre())
	f := func(a, b uint8) bool {
		la, lb := float64(a), float64(b)
		if la > lb {
			la, lb = lb, la
		}
		ta := fs.AcquireLoad(la)
		pa := fs.FailureProbability()
		ta.Release()
		tb := fs.AcquireLoad(lb)
		pb := fs.FailureProbability()
		tb.Release()
		return pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
