package remoterts

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rts"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// The stats contract, held against all four core.RTS implementations at once:
// Stats() is the only telemetry call there is, so what it returns has to mean
// the same thing whichever implementation the manager was given.

// newPilot builds an unstarted rts.PilotRTS on "supermic".
func newPilot(t *testing.T, cores int) *rts.PilotRTS {
	t.Helper()
	r, err := rts.New(pilotConfig(t, cores))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func pilotConfig(t *testing.T, cores int) rts.Config {
	t.Helper()
	clock := vclock.NewScaled(time.Microsecond)
	session := saga.NewSession()
	t.Cleanup(session.Close)
	a, err := saga.NewCatalogAdapter("supermic", clock)
	if err != nil {
		t.Fatal(err)
	}
	session.Register(a)
	return rts.Config{
		Resource: core.ResourceDesc{Resource: "supermic", Cores: cores, GPUs: 2, Walltime: 72 * time.Hour},
		Clock:    clock,
		Session:  session,
		Registry: workload.NewRegistry(),
		Model:    rts.FastModel(),
	}
}

// pilotFleet starts n loopback agents, each hosting a real PilotRTS, and a
// proxy over them. hosted returns the RTS instances the agents have built.
func pilotFleet(t *testing.T, n, cores int) (p *Proxy, hosted func() []core.RTS) {
	t.Helper()
	var mu sync.Mutex
	built := make([]core.RTS, n)
	addrs := make([]string, n)
	for k := 0; k < n; k++ {
		a, err := NewAgent(AgentConfig{
			Addr:     "tcp:127.0.0.1:0",
			Resource: core.ResourceDesc{Resource: "supermic", Cores: cores, GPUs: 2},
			Factory: func(core.ResourceDesc) (core.RTS, error) {
				r := newPilot(t, cores)
				mu.Lock()
				built[k] = r
				mu.Unlock()
				return r, nil
			},
			HeartbeatInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		addrs[k] = a.Addr()
	}
	p = startProxy(t, addrs...)
	if live := len(p.livePeers()); live != n {
		t.Fatalf("%d of %d agents connected", live, n)
	}
	return p, func() []core.RTS {
		mu.Lock()
		defer mu.Unlock()
		return append([]core.RTS(nil), built...)
	}
}

// contractCase is one started implementation under the contract.
type contractCase struct {
	rts    core.RTS
	pilots int  // pilots it counts as its own
	cores  int  // the CoresTotal it must report
	remote bool // stats arrive by report: eventually, and without SchedulerBusy
	// members, for a composite: the RTSes whose Stats() its own must be the
	// Add of.
	members func() []core.RTS
}

const contractCores = 8

func started(t *testing.T, r core.RTS) core.RTS {
	t.Helper()
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Stop() }) //nolint:errcheck
	return r
}

var contractCases = map[string]func(t *testing.T) contractCase{
	"PilotRTS": func(t *testing.T) contractCase {
		return contractCase{rts: started(t, newPilot(t, contractCores)), pilots: 1, cores: contractCores}
	},
	"Router": func(t *testing.T) contractCase {
		a, b := newPilot(t, contractCores), newPilot(t, contractCores)
		r, err := rts.NewRouter([]rts.RouterMember{
			{Name: "a", RTS: a, Resource: "supermic", Capacity: contractCores},
			{Name: "b", RTS: b, Resource: "supermic", Capacity: contractCores},
		})
		if err != nil {
			t.Fatal(err)
		}
		return contractCase{rts: started(t, r), pilots: 2, cores: 2 * contractCores,
			members: func() []core.RTS { return []core.RTS{a, b} }}
	},
	"Lease": func(t *testing.T) contractCase {
		pool, err := rts.NewPool(rts.PoolConfig{Base: pilotConfig(t, contractCores)})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Stop)
		l, err := pool.Admit(rts.LeaseSpec{RunID: "run", Tenant: "t", Cores: contractCores / 2})
		if err != nil {
			t.Fatal(err)
		}
		// The pilot is the pool's, and the lease reports its own claim.
		return contractCase{rts: started(t, l), pilots: 0, cores: contractCores / 2}
	},
	"Proxy": func(t *testing.T) contractCase {
		p, hosted := pilotFleet(t, 2, contractCores)
		return contractCase{rts: p, pilots: 2, cores: 2 * contractCores, remote: true, members: hosted}
	},
}

func TestStatsContract(t *testing.T) {
	const tasks = 24
	for name, build := range contractCases {
		t.Run(name, func(t *testing.T) {
			c := build(t)
			r := c.rts
			batch := make([]core.TaskDescription, tasks)
			for i := range batch {
				batch[i] = core.TaskDescription{UID: fmt.Sprintf("task.%03d", i), Executable: "sleep", Duration: time.Second, Cores: 1}
			}
			if err := r.Submit(batch); err != nil {
				t.Fatal(err)
			}
			timeout := time.After(30 * time.Second)
			for got := 0; got < tasks; got++ {
				select {
				case res := <-r.Completions():
					if res.ExitCode != 0 {
						t.Fatalf("task %s failed: %s", res.UID, res.Error)
					}
				case <-timeout:
					t.Fatalf("timed out with %d of %d results", got, tasks)
				}
			}

			// An executor returns its cores just after it delivers its result,
			// and a remote agent reports on its heartbeat: the drained state is
			// reached shortly after the last result, not with it.
			var st core.RTSStats
			waitFor(t, "the drained state to be reported", func() bool {
				st = r.Stats()
				var dispatched uint64
				for _, n := range st.Store.SchedulerDispatches {
					dispatched += n
				}
				return dispatched == tasks && st.Utilization.CoresBusy == 0
			})
			if st.PilotsSubmitted != c.pilots {
				t.Errorf("PilotsSubmitted = %d, want %d", st.PilotsSubmitted, c.pilots)
			}
			if st.TasksSubmitted != tasks || st.TasksCompleted != tasks || st.TasksFailed != 0 {
				t.Errorf("submitted/completed/failed = %d/%d/%d, want %d/%d/0",
					st.TasksSubmitted, st.TasksCompleted, st.TasksFailed, tasks, tasks)
			}
			u, s := st.Utilization, st.Store
			if u.TasksInFlight != 0 || u.CoresBusy != 0 || u.GPUsBusy != 0 {
				t.Errorf("drained, yet utilization is %+v", u)
			}
			if u.CoresTotal != c.cores {
				t.Errorf("CoresTotal = %d, want %d", u.CoresTotal, c.cores)
			}
			if s.Pushed != s.Pulled || s.Depth != 0 {
				t.Errorf("drained, yet the store pushed %d, pulled %d and holds %d", s.Pushed, s.Pulled, s.Depth)
			}
			if s.Shards == 0 || len(s.ShardDepths) != s.Shards {
				t.Errorf("%d shard depths for %d shards", len(s.ShardDepths), s.Shards)
			}
			if s.Schedulers == 0 || len(s.SchedulerPulls) != s.Schedulers || len(s.SchedulerDispatches) != s.Schedulers {
				t.Errorf("%d pull and %d dispatch tallies for %d schedulers",
					len(s.SchedulerPulls), len(s.SchedulerDispatches), s.Schedulers)
			}
			wantBusy := s.Schedulers
			if c.remote {
				wantBusy = 0 // local-only: the agent-stats frame does not carry it
			}
			if len(s.SchedulerBusy) != wantBusy {
				t.Errorf("%d busy tallies, want %d", len(s.SchedulerBusy), wantBusy)
			}

			// A composite reports RTSStats.Add over its members, in order.
			if c.members == nil {
				return
			}
			var want core.RTSStats
			for _, m := range c.members() {
				want.Add(m.Stats())
			}
			if c.remote {
				want.Store.SchedulerBusy = nil
			}
			if !reflect.DeepEqual(st, want) {
				t.Errorf("composite reports\n %+v\nits members merge to\n %+v", st, want)
			}
		})
	}
}

// TestResultErrorContract holds every implementation to TaskResult.Error's
// meaning: empty for a task that exited 0 — whatever its executable printed —
// and the failure's text for one that did not.
func TestResultErrorContract(t *testing.T) {
	for name, build := range contractCases {
		t.Run(name, func(t *testing.T) {
			r := build(t).rts
			batch := []core.TaskDescription{
				{UID: "task.quiet", Executable: "sleep", Duration: time.Second, Cores: 1},
				{UID: "task.chatty", Executable: "mdrun", Arguments: []string{"-nsteps", "2"}, Duration: time.Second, Cores: 1},
				{UID: "task.missing", Executable: "no-such-executable", Cores: 1},
			}
			if err := r.Submit(batch); err != nil {
				t.Fatal(err)
			}
			timeout := time.After(30 * time.Second)
			for got := 0; got < len(batch); got++ {
				select {
				case res := <-r.Completions():
					failed := res.UID == "task.missing"
					if failed != (res.ExitCode != 0) || failed != (res.Error != "") {
						t.Errorf("%s reported exit %d, error %q", res.UID, res.ExitCode, res.Error)
					}
				case <-timeout:
					t.Fatalf("timed out with %d of %d results", got, len(batch))
				}
			}
		})
	}
}
