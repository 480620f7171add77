package saga

import (
	"testing"
	"time"

	"repro/internal/hpc"
	"repro/internal/vclock"
)

func testSession(t *testing.T) (*Session, vclock.Clock) {
	t.Helper()
	// Nothing here waits on the clock but the walltime watchdogs, so a coarse
	// scale costs no wall time: an hour's walltime is 3.6 s of wall time, not
	// the 3.6 ms a busy machine can spend between Active and Complete.
	clock := vclock.NewScaled(time.Millisecond)
	s := NewSession()
	t.Cleanup(s.Close)
	for _, name := range hpc.Names() {
		if err := s.Register(catalogAdapter(t, name, clock)); err != nil {
			t.Fatal(err)
		}
	}
	return s, clock
}

// catalogAdapter simulates the catalogued CI name on clock; closing the
// adapter tears the cluster down.
func catalogAdapter(t *testing.T, name string, clock vclock.Clock) Adapter {
	t.Helper()
	spec, err := hpc.LookupSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := hpc.NewCluster(spec, clock)
	if err != nil {
		t.Fatal(err)
	}
	return OwnCluster(c)
}

func TestSessionRoutesToAllCatalogCIs(t *testing.T) {
	s, _ := testSession(t)
	if got := len(s.Resources()); got != 4 {
		t.Fatalf("resources = %d, want 4", got)
	}
	for _, res := range s.Resources() {
		j, err := s.Submit(res, JobDescription{Name: "pilot", Cores: 16, Walltime: time.Hour})
		if err != nil {
			t.Fatalf("submit to %s: %v", res, err)
		}
		select {
		case <-j.Active():
		case <-time.After(5 * time.Second):
			t.Fatalf("pilot on %s never started", res)
		}
		if j.State() != StateRunning {
			t.Fatalf("state on %s = %v", res, j.State())
		}
		if err := j.Complete(); err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if j.State() != StateDone {
			t.Fatalf("final state on %s = %v", res, j.State())
		}
	}
}

func TestSubmitUnknownResource(t *testing.T) {
	s, _ := testSession(t)
	if _, err := s.Submit("frontier", JobDescription{Cores: 1, Walltime: time.Hour}); err == nil {
		t.Fatal("expected error for unknown resource")
	}
}

func TestDuplicateAdapterRejected(t *testing.T) {
	s, _ := testSession(t)
	clock := vclock.NewScaled(time.Microsecond)
	a := catalogAdapter(t, "titan", clock)
	defer a.Close()
	if err := s.Register(a); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestCancelMapsToCanceled(t *testing.T) {
	s, _ := testSession(t)
	j, err := s.Submit("titan", JobDescription{Name: "p", Cores: 16, Walltime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Active()
	if err := j.Cancel(); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != StateCanceled {
		t.Fatalf("state = %v, want CANCELED", j.State())
	}
}

func TestWalltimeKillMapsToFailed(t *testing.T) {
	clock := vclock.NewScaled(time.Microsecond)
	cluster, err := hpc.NewCluster(hpc.Spec{
		Name: "tiny", Nodes: 1, CoresPerNode: 4, MaxWalltime: time.Hour,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	a := NewClusterAdapter(cluster)
	j, err := a.Submit(JobDescription{Name: "p", Cores: 1, Walltime: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job never reached terminal state")
	}
	if j.State() != StateFailed {
		t.Fatalf("state = %v, want FAILED", j.State())
	}
}

func TestSubmitRejectsZeroCores(t *testing.T) {
	s, _ := testSession(t)
	if _, err := s.Submit("comet", JobDescription{Cores: 0, Walltime: time.Hour}); err == nil {
		t.Fatal("zero-core job accepted")
	}
}

func TestJobIDsDistinct(t *testing.T) {
	s, _ := testSession(t)
	j1, _ := s.Submit("comet", JobDescription{Name: "a", Cores: 24, Walltime: time.Hour})
	j2, _ := s.Submit("comet", JobDescription{Name: "b", Cores: 24, Walltime: time.Hour})
	if j1.ID() == j2.ID() {
		t.Fatalf("duplicate job IDs: %s", j1.ID())
	}
	j1.Cancel()
	j2.Cancel()
}

func TestStateStrings(t *testing.T) {
	states := []JobState{StatePending, StateRunning, StateDone, StateCanceled, StateFailed}
	want := []string{"PENDING", "RUNNING", "DONE", "CANCELED", "FAILED"}
	for i, st := range states {
		if st.String() != want[i] {
			t.Fatalf("state %d string = %q", i, st.String())
		}
	}
	if !StateDone.Terminal() || StateRunning.Terminal() {
		t.Fatal("terminal classification wrong")
	}
}
