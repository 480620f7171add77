package hpc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
)

// fourNodeSpec returns a tiny cluster spec with backfill configurable.
func fourNodeSpec(backfill bool) Spec {
	return Spec{
		Name: "tiny4", Nodes: 4, CoresPerNode: 1,
		MaxWalltime: 100000 * time.Hour, Backfill: backfill,
	}
}

func TestFIFOHeadBlocksQueue(t *testing.T) {
	c, _ := NewCluster(fourNodeSpec(false), vclock.NewManual())
	defer c.Close()
	wide, _ := c.Submit(JobDesc{Name: "wide", Cores: 3, Walltime: time.Hour})
	<-wide.Active()
	// Head needs 3 nodes; only 1 free. A 1-node job behind it must NOT
	// start under strict FIFO.
	blockedHead, _ := c.Submit(JobDesc{Name: "head", Cores: 3, Walltime: time.Hour})
	small, _ := c.Submit(JobDesc{Name: "small", Cores: 1, Walltime: time.Hour})
	select {
	case <-small.Active():
		t.Fatal("small job started past a blocked head without backfill")
	case <-time.After(20 * time.Millisecond):
	}
	if blockedHead.State() != JobPending || small.State() != JobPending {
		t.Fatalf("states: head %v small %v", blockedHead.State(), small.State())
	}
}

func TestBackfillStartsFittingJob(t *testing.T) {
	c, _ := NewCluster(fourNodeSpec(true), vclock.NewManual())
	defer c.Close()
	wide, _ := c.Submit(JobDesc{Name: "wide", Cores: 3, Walltime: time.Hour})
	<-wide.Active()
	head, _ := c.Submit(JobDesc{Name: "head", Cores: 3, Walltime: time.Hour})
	small, _ := c.Submit(JobDesc{Name: "small", Cores: 1, Walltime: time.Hour})
	select {
	case <-small.Active():
	case <-time.After(5 * time.Second):
		t.Fatal("small job never backfilled")
	}
	if head.State() != JobPending {
		t.Fatalf("blocked head state = %v, want PENDING", head.State())
	}
	// Once both running jobs finish, the head finally starts.
	c.Complete(wide)
	c.Complete(small)
	select {
	case <-head.Active():
	case <-time.After(5 * time.Second):
		t.Fatal("head never started after space freed")
	}
}

func TestBackfillPreservesOrderAmongFittingJobs(t *testing.T) {
	c, _ := NewCluster(fourNodeSpec(true), vclock.NewManual())
	defer c.Close()
	wide, _ := c.Submit(JobDesc{Name: "wide", Cores: 4, Walltime: time.Hour})
	<-wide.Active()
	a, _ := c.Submit(JobDesc{Name: "a", Cores: 2, Walltime: time.Hour})
	b, _ := c.Submit(JobDesc{Name: "b", Cores: 2, Walltime: time.Hour})
	cjob, _ := c.Submit(JobDesc{Name: "c", Cores: 2, Walltime: time.Hour})
	c.Complete(wide)
	// Two of the three 2-node jobs fit; they must start in submit order.
	<-a.Active()
	<-b.Active()
	if cjob.State() != JobPending {
		t.Fatalf("third job state = %v, want PENDING", cjob.State())
	}
	c.Complete(a)
	<-cjob.Active()
}

func TestBackfillSkipsCanceledEntries(t *testing.T) {
	c, _ := NewCluster(fourNodeSpec(true), vclock.NewManual())
	defer c.Close()
	wide, _ := c.Submit(JobDesc{Name: "wide", Cores: 4, Walltime: time.Hour})
	<-wide.Active()
	doomed, _ := c.Submit(JobDesc{Name: "doomed", Cores: 1, Walltime: time.Hour})
	live, _ := c.Submit(JobDesc{Name: "live", Cores: 1, Walltime: time.Hour})
	c.Cancel(doomed)
	c.Complete(wide)
	select {
	case <-live.Active():
	case <-time.After(5 * time.Second):
		t.Fatal("live job never started past a canceled entry")
	}
	if doomed.State() != JobCanceled {
		t.Fatalf("doomed state = %v", doomed.State())
	}
}

// Property: under random submit/complete interleavings, with or without
// backfill, node accounting never goes negative and always returns to full
// capacity after all jobs finish.
func TestSchedulerNodeAccountingProperty(t *testing.T) {
	check := func(seed int64, backfill bool) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := Spec{
			Name: "prop", Nodes: 8, CoresPerNode: 1,
			MaxWalltime: 100000 * time.Hour, Backfill: backfill,
		}
		c, err := NewCluster(spec, vclock.NewManual())
		if err != nil {
			return false
		}
		defer c.Close()
		var jobs []*Job
		for i := 0; i < 12; i++ {
			j, err := c.Submit(JobDesc{
				Name: "j", Cores: 1 + rng.Intn(spec.Nodes), Walltime: time.Hour,
			})
			if err != nil {
				return false
			}
			jobs = append(jobs, j)
			if c.FreeNodes() < 0 {
				return false
			}
			// Randomly complete one running job to churn the queue.
			if rng.Intn(2) == 0 {
				for _, r := range jobs {
					if r.State() == JobRunning {
						c.Complete(r)
						break
					}
				}
			}
		}
		// Drain: complete running jobs until every job is terminal. Jobs
		// can be mid-start, so poll with a deadline.
		deadline := time.Now().Add(10 * time.Second)
		for {
			allDone := true
			for _, j := range jobs {
				switch j.State() {
				case JobRunning:
					c.Complete(j)
					allDone = false
				case JobPending:
					allDone = false
				}
			}
			if allDone {
				break
			}
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return c.FreeNodes() == spec.Nodes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
