package remoterts

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// recordRTS is an echoRTS that also keeps every description it is handed,
// in arrival order — what a test needs to see which tasks a peer was sent
// and what survived the wire.
type recordRTS struct {
	*echoRTS
	mu   sync.Mutex
	seen []core.TaskDescription
}

func (r *recordRTS) Submit(tasks []core.TaskDescription) error {
	r.mu.Lock()
	r.seen = append(r.seen, tasks...)
	r.mu.Unlock()
	return r.echoRTS.Submit(tasks)
}

// take returns and forgets what has arrived so far.
func (r *recordRTS) take() []core.TaskDescription {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := r.seen
	r.seen = nil
	return seen
}

// startRecordingFleet starts n agents over unix sockets, each hosting one
// recordRTS (the tests here connect one manager, once), and a proxy striping
// across them in the order returned.
func startRecordingFleet(t *testing.T, n int) (*Proxy, []*recordRTS) {
	t.Helper()
	dir := t.TempDir()
	fleet := make([]*recordRTS, n)
	addrs := make([]string, n)
	for k := range fleet {
		rec := &recordRTS{echoRTS: newEchoRTS()}
		fleet[k] = rec
		a, err := NewAgent(AgentConfig{
			Addr:              fmt.Sprintf("unix:%s/agent-%d.sock", dir, k),
			Factory:           func(core.ResourceDesc) (core.RTS, error) { return rec, nil },
			HeartbeatInterval: time.Minute, // no stats or keepalive traffic inside a test
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		addrs[k] = a.Addr()
	}
	p, err := NewProxy(Config{Addrs: addrs, StartTimeout: 2 * time.Second, HeartbeatInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() }) //nolint:errcheck
	if live := len(p.livePeers()); live != n {
		t.Fatalf("%d of %d agents connected", live, n)
	}
	return p, fleet
}

// drain receives n results, so every frame of the batch has been decoded
// and submitted on its agent.
func drain(t *testing.T, p *Proxy, n int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for ; n > 0; n-- {
		select {
		case _, ok := <-p.Completions():
			if !ok {
				t.Fatalf("completions closed with %d results outstanding", n)
			}
		case <-timeout:
			t.Fatalf("timed out with %d results outstanding", n)
		}
	}
}

// Task i of a batch goes to live peer (base+i) mod L, the base advancing one
// peer per batch; each peer receives its tasks in submission order, and every
// task reaches exactly one peer.
func TestStripingIsInterleavedRoundRobin(t *testing.T) {
	for peers := 1; peers <= 4; peers++ {
		p, fleet := startRecordingFleet(t, peers)
		for _, n := range []int{0, 1, peers - 1, peers, peers + 1, 1000} {
			for rotation := 0; rotation < peers; rotation++ {
				base := int(p.rr.Load()) % peers
				tasks := make([]core.TaskDescription, n)
				want := make([][]string, peers)
				for i := range tasks {
					tasks[i] = core.TaskDescription{UID: fmt.Sprintf("t.%d.%d.%d", n, rotation, i), Executable: "sleep"}
					k := (base + i) % peers
					want[k] = append(want[k], tasks[i].UID)
				}
				if err := p.Submit(tasks); err != nil {
					t.Fatal(err)
				}
				drain(t, p, n)
				for k, rec := range fleet {
					var got []string
					for _, d := range rec.take() {
						got = append(got, d.UID)
					}
					if !reflect.DeepEqual(got, want[k]) {
						t.Fatalf("%d peers, base %d, %d tasks: peer %d received %d tasks %.8v, want %d %.8v",
							peers, base, n, k, len(got), got, len(want[k]), want[k])
					}
				}
			}
		}
		if got := p.Stats(); got.TasksSubmitted != got.TasksCompleted || got.Utilization.TasksInFlight != 0 {
			t.Fatalf("%d peers: proxy counters %+v after every batch drained", peers, got)
		}
	}
}

// A description with every field set arrives as it was submitted: the
// scratch values the codec reuses between tasks leak nothing from one task
// into the next.
func TestDescriptionsSurviveTheWire(t *testing.T) {
	p, fleet := startRecordingFleet(t, 1)
	full := core.TaskDescription{
		UID: "task.full", Name: "replica", Executable: "mdrun",
		Arguments:   []string{"-deffnm", "md"},
		Environment: map[string]string{"OMP_NUM_THREADS": "4", "LANG": "C"},
		Cores:       4, GPUs: 1, Duration: 600 * time.Second, IOLoad: 0.25, PreExec: 2, PostExec: 1,
		Input: []core.StagingDirective{
			{Source: "in.gro", Target: "md.gro", Action: core.StagingLink, Bytes: 1 << 20},
			{Source: "top.top", Target: "md.top", Action: core.StagingCopy, Bytes: 4096},
		},
		Output: []core.StagingDirective{
			{Source: "md.xtc", Target: "remote://archive/md.xtc", Action: core.StagingTransfer, Bytes: 1 << 28, Protocol: "globus"},
		},
		Attempt: 3,
		Tags:    map[string]string{"resource": "titan"},
	}
	bare := core.TaskDescription{UID: "task.bare", Executable: "sleep", Cores: 1}
	other := core.TaskDescription{UID: "task.other", Executable: "cp",
		Input: []core.StagingDirective{{Source: "a", Target: "b", Action: core.StagingMove}}}
	tasks := []core.TaskDescription{full, bare, other, bare, full}
	if err := p.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	drain(t, p, len(tasks))
	if got := fleet[0].take(); !reflect.DeepEqual(got, tasks) {
		t.Fatalf("agent received\n%+v\nwant\n%+v", got, tasks)
	}
}

// A LocalFunc anywhere in the batch rejects all of it before a byte of it is
// sent: no peer may be left holding part of a batch its manager refused.
func TestLocalFuncBatchSendsNoFrame(t *testing.T) {
	p, fleet := startRecordingFleet(t, 3)
	sentBefore := make([]uint64, len(p.peers))
	for k, pr := range p.peers {
		sentBefore[k], _ = pr.tc.Stats()
	}
	tasks := make([]core.TaskDescription, 64)
	for i := range tasks {
		tasks[i] = core.TaskDescription{UID: uid(i), Executable: "sleep"}
	}
	tasks[len(tasks)-1].LocalFunc = func() error { return nil }
	if err := p.Submit(tasks); err == nil || !strings.Contains(err.Error(), "LocalFunc") {
		t.Fatalf("Submit = %v, want the LocalFunc rejection", err)
	}
	for k, pr := range p.peers {
		if sent, _ := pr.tc.Stats(); sent != sentBefore[k] {
			t.Fatalf("peer %d was sent %d frames of a rejected batch", k, sent-sentBefore[k])
		}
	}
	if st := p.Stats(); st.TasksSubmitted != 0 || st.Utilization.TasksInFlight != 0 {
		t.Fatalf("a rejected batch was counted: %+v", st)
	}
	// The proxy is still usable, and the agents saw only the accepted batch.
	tasks[len(tasks)-1].LocalFunc = nil
	if err := p.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	drain(t, p, len(tasks))
	total := 0
	for _, rec := range fleet {
		total += len(rec.take())
	}
	if total != len(tasks) {
		t.Fatalf("agents received %d tasks, want %d", total, len(tasks))
	}
}

// The cost of a batch does not grow with its tasks: a 64-task round trip —
// proxy encode, agent decode and submit, results back and decoded — stays
// within a fixed handful of allocations (13 measured; it was 211 when the
// path built a slice per translation step and a string per field).
func TestRoundTripAllocations(t *testing.T) {
	p, _ := startRecordingFleet(t, 1)
	tasks := make([]core.TaskDescription, 64)
	for i := range tasks {
		tasks[i] = core.TaskDescription{UID: fmt.Sprintf("task.%04d", i), Executable: "sleep"}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := p.Submit(tasks); err != nil {
			t.Fatal(err)
		}
		for range tasks {
			if _, ok := <-p.Completions(); !ok {
				t.Fatal("completions closed mid-drain")
			}
		}
	})
	if allocs > 24 {
		t.Fatalf("a 64-task round trip allocates %.1f objects, want <= 24", allocs)
	}
	t.Logf("64-task round trip: %.1f allocations", allocs)
}
