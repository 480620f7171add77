package hpc

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
)

func fastClock() vclock.Clock { return vclock.NewScaled(time.Microsecond) }

// catalogCluster simulates the catalogued CI name on a fast clock.
func catalogCluster(name string) (*Cluster, error) {
	spec, err := LookupSpec(name)
	if err != nil {
		return nil, err
	}
	return NewCluster(spec, fastClock())
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if j.State() == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job never reached %v (state %v)", want, j.State())
		case <-time.After(time.Millisecond):
		}
	}
}

func TestCatalogSpecsValid(t *testing.T) {
	for _, name := range Names() {
		spec, err := LookupSpec(name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec %s invalid: %v", name, err)
		}
	}
	// Titan is the leadership-class machine: by far the most cores.
	titan, _ := LookupSpec("titan")
	for _, other := range []string{"supermic", "stampede", "comet"} {
		s, _ := LookupSpec(other)
		if s.TotalCores() >= titan.TotalCores() {
			t.Fatalf("%s has more cores than titan", other)
		}
	}
	if titan.GPUsPerNode != 1 {
		t.Fatal("titan should have 1 GPU per node")
	}
	if titan.MaxWalltime != 2*time.Hour {
		t.Fatal("titan walltime policy should be the 2h cap from the paper")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := LookupSpec("summit"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSubmitAndRun(t *testing.T) {
	c, err := catalogCluster("supermic")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	j, err := c.Submit(JobDesc{Name: "pilot", Cores: 40, Walltime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Active():
	case <-time.After(5 * time.Second):
		t.Fatal("job never became active")
	}
	if j.State() != JobRunning {
		t.Fatalf("state = %v", j.State())
	}
	// 40 cores on 20-core nodes = 2 nodes.
	if j.Nodes != 2 {
		t.Fatalf("nodes = %d, want 2", j.Nodes)
	}
	if got := c.FreeNodes(); got != 378 {
		t.Fatalf("free nodes = %d, want 378", got)
	}
	c.Complete(j)
	waitState(t, j, JobDone)
	if got := c.FreeNodes(); got != 380 {
		t.Fatalf("free nodes after completion = %d", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	c, _ := catalogCluster("comet")
	defer c.Close()
	cases := []JobDesc{
		{Name: "zero-cores", Cores: 0, Walltime: time.Hour},
		{Name: "too-big", Cores: 1944*24 + 1, Walltime: time.Hour},
		{Name: "zero-wall", Cores: 24, Walltime: 0},
		{Name: "over-wall", Cores: 24, Walltime: 100 * time.Hour},
	}
	for _, d := range cases {
		if _, err := c.Submit(d); err == nil {
			t.Fatalf("submit %q succeeded, want error", d.Name)
		}
	}
}

func TestFIFOQueueing(t *testing.T) {
	// A Manual clock never advances on its own, so walltime can never
	// expire mid-test regardless of scheduler slowness (race builds).
	spec := Spec{Name: "tiny", Nodes: 2, CoresPerNode: 4, MaxWalltime: 100000 * time.Hour}
	c, err := NewCluster(spec, vclock.NewManual())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	j1, _ := c.Submit(JobDesc{Name: "a", Cores: 8, Walltime: 100000 * time.Hour}) // whole machine
	j2, _ := c.Submit(JobDesc{Name: "b", Cores: 4, Walltime: 100000 * time.Hour})
	select {
	case <-j1.Active():
	case <-time.After(5 * time.Second):
		t.Fatal("j1 never active")
	}
	// j2 must still be pending: no free nodes.
	select {
	case <-j2.Active():
		t.Fatal("j2 started while machine full")
	case <-time.After(20 * time.Millisecond):
	}
	c.Complete(j1)
	select {
	case <-j2.Active():
	case <-time.After(5 * time.Second):
		t.Fatal("j2 never started after j1 freed nodes")
	}
	c.Complete(j2)
}

func TestWalltimeEnforcement(t *testing.T) {
	spec := Spec{Name: "tiny", Nodes: 1, CoresPerNode: 4, MaxWalltime: time.Hour}
	c, _ := NewCluster(spec, vclock.NewScaled(10*time.Microsecond))
	defer c.Close()
	j, err := c.Submit(JobDesc{Name: "short", Cores: 4, Walltime: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job never timed out")
	}
	if j.State() != JobTimedOut {
		t.Fatalf("state = %v, want TIMED_OUT", j.State())
	}
	if c.FreeNodes() != 1 {
		t.Fatal("nodes not freed after walltime kill")
	}
}

func TestQueueWaitDelaysStart(t *testing.T) {
	clock := vclock.NewManual()
	spec := Spec{
		Name: "queued", Nodes: 4, CoresPerNode: 4,
		BaseQueueWait: 10 * time.Minute, MaxWalltime: time.Hour,
	}
	c, _ := NewCluster(spec, clock)
	defer c.Close()
	j, _ := c.Submit(JobDesc{Name: "p", Cores: 4, Walltime: time.Hour})
	// Wait for the queue-wait sleeper to register on the manual clock.
	for i := 0; i < 1000 && clock.Pending() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-j.Active():
		t.Fatal("job active before queue wait elapsed")
	case <-time.After(20 * time.Millisecond):
	}
	clock.Advance(10 * time.Minute)
	select {
	case <-j.Active():
	case <-time.After(5 * time.Second):
		t.Fatal("job never started after queue wait")
	}
	c.Complete(j)
}

// TestCloseEndsTheJobGoroutines: Close cancels a job still sitting out its
// queue wait on a clock that will not move, and returns only once the
// goroutine that waited for it — like every walltime watchdog — has ended.
func TestCloseEndsTheJobGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	clock := vclock.NewManual()
	spec := Spec{
		Name: "queued", Nodes: 4, CoresPerNode: 4,
		BaseQueueWait: 10 * time.Minute, MaxWalltime: time.Hour,
	}
	c, _ := NewCluster(spec, clock)
	j, err := c.Submit(JobDesc{Name: "p", Cores: 4, Walltime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if j.State() != JobCanceled {
		t.Errorf("job %v after Close, want CANCELED", j.State())
	}
	// A goroutine that has marked itself done may take a moment to exit.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Submit", runtime.NumGoroutine(), before)
		}
	}
}

func TestCancelPendingJob(t *testing.T) {
	spec := Spec{Name: "tiny", Nodes: 1, CoresPerNode: 1, MaxWalltime: 100000 * time.Hour}
	c, _ := NewCluster(spec, vclock.NewManual())
	defer c.Close()
	j1, _ := c.Submit(JobDesc{Name: "a", Cores: 1, Walltime: 100000 * time.Hour})
	j2, _ := c.Submit(JobDesc{Name: "b", Cores: 1, Walltime: 100000 * time.Hour})
	<-j1.Active()
	c.Cancel(j2)
	waitState(t, j2, JobCanceled)
	c.Complete(j1)
	waitState(t, j1, JobDone)
	if c.FreeNodes() != 1 {
		t.Fatalf("free nodes = %d", c.FreeNodes())
	}
}

func TestDoubleCompleteIsIdempotent(t *testing.T) {
	c, _ := catalogCluster("comet")
	defer c.Close()
	j, _ := c.Submit(JobDesc{Name: "p", Cores: 24, Walltime: time.Hour})
	<-j.Active()
	c.Complete(j)
	c.Complete(j)
	c.Cancel(j)
	waitState(t, j, JobDone)
	if c.FreeNodes() != c.Spec.Nodes {
		t.Fatal("node accounting broken by repeated finish")
	}
}

func TestStatsAccounting(t *testing.T) {
	c, _ := catalogCluster("supermic")
	defer c.Close()
	j, _ := c.Submit(JobDesc{Name: "p", Cores: 20, Walltime: time.Hour})
	<-j.Active()
	if free := c.FreeNodes(); free != c.Spec.Nodes-1 {
		t.Fatalf("free nodes with one running job = %d, want %d", free, c.Spec.Nodes-1)
	}
	c.Complete(j)
	waitState(t, j, JobDone)
	if free := c.FreeNodes(); free != c.Spec.Nodes {
		t.Fatalf("free nodes after completion = %d, want %d", free, c.Spec.Nodes)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	spec := Spec{Name: "tiny", Nodes: 1, CoresPerNode: 1, MaxWalltime: 100000 * time.Hour}
	c, _ := NewCluster(spec, vclock.NewManual())
	j1, _ := c.Submit(JobDesc{Name: "a", Cores: 1, Walltime: 100000 * time.Hour})
	j2, _ := c.Submit(JobDesc{Name: "b", Cores: 1, Walltime: 100000 * time.Hour})
	<-j1.Active()
	c.Close()
	waitState(t, j1, JobCanceled)
	waitState(t, j2, JobCanceled)
	if _, err := c.Submit(JobDesc{Name: "c", Cores: 1, Walltime: time.Hour}); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// Property: core-to-node rounding never allocates fewer cores than requested
// and never more than one extra node's worth.
func TestNodeRoundingProperty(t *testing.T) {
	spec, _ := LookupSpec("titan")
	c, _ := NewCluster(spec, fastClock())
	defer c.Close()
	f := func(coresReq uint16) bool {
		cores := int(coresReq)%spec.TotalCores() + 1
		j, err := c.Submit(JobDesc{Name: "p", Cores: cores, Walltime: time.Hour})
		if err != nil {
			return false
		}
		defer c.Cancel(j)
		allocated := j.Nodes * spec.CoresPerNode
		return allocated >= cores && allocated < cores+spec.CoresPerNode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
