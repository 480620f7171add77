package rts

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Router is a composite runtime system that maps tasks onto a set of child
// RTS instances, each typically holding a pilot on a different CI. It
// implements the paper's future-work capability (i), "dynamic mapping of
// tasks onto heterogeneous resources", behind the same black-box core.RTS
// interface — demonstrating the composability the architecture promises
// (§II-B2). The seismic use case's requirement to "interleave simulation
// tasks with data-processing tasks, each requiring respectively
// leadership-scale systems and moderately sized clusters" (§III-A) is
// exactly this router with a Titan member and an XSEDE member.
//
// Routing policy, per task:
//
//  1. an explicit "resource" tag selects the member on that CI;
//  2. otherwise the task goes to the member with the most free capacity
//     among those whose pilot is large enough (least-loaded placement).
type Router struct {
	members []*member
	out     core.Outbox
	started bool

	routedTo sync.Map // member name -> *int64
}

type member struct {
	name string
	rts  core.RTS
	// capacity is the member pilot's core count, used for least-loaded
	// placement (free = capacity - inflight cores, approximated by task
	// counts since the router does not see core-level state).
	capacity int
	// gpus is the member pilot's GPU count; untagged GPU tasks are only
	// placed on members with enough GPUs.
	gpus     int
	resource string
	inflight int64
}

// RouterMember declares one child RTS for the router.
type RouterMember struct {
	// Name identifies the member in statistics.
	Name string
	// RTS is the child runtime system (usually a *PilotRTS).
	RTS core.RTS
	// Resource is the CI the member's pilot runs on ("resource" tags match
	// against it).
	Resource string
	// Capacity is the member pilot's core count.
	Capacity int
	// GPUs is the member pilot's GPU count (0 = no GPUs).
	GPUs int
}

// NewRouter builds a router over the given members.
func NewRouter(members []RouterMember) (*Router, error) {
	if len(members) == 0 {
		return nil, errors.New("rts: router needs at least one member")
	}
	r := &Router{}
	r.out.Init(4096)
	seen := map[string]bool{}
	for _, m := range members {
		if m.RTS == nil {
			return nil, errors.New("rts: router member without RTS")
		}
		if m.Name == "" || seen[m.Name] {
			return nil, fmt.Errorf("rts: router member name %q empty or duplicate", m.Name)
		}
		if m.Capacity <= 0 {
			return nil, fmt.Errorf("rts: router member %q has no capacity", m.Name)
		}
		seen[m.Name] = true
		if m.GPUs < 0 {
			return nil, fmt.Errorf("rts: router member %q has negative GPUs", m.Name)
		}
		r.members = append(r.members, &member{
			name: m.Name, rts: m.RTS, capacity: m.Capacity, gpus: m.GPUs,
			resource: m.Resource,
		})
	}
	return r, nil
}

// Start implements core.RTS: every member starts (pilots are submitted to
// their respective CIs).
func (r *Router) Start(ctx context.Context) error {
	if r.started {
		return errors.New("rts: router already started")
	}
	r.started = true
	for _, m := range r.members {
		if err := m.rts.Start(ctx); err != nil {
			return fmt.Errorf("rts: router member %s: %w", m.name, err)
		}
		r.out.Go(func() { r.forward(m) })
	}
	return nil
}

// forward merges one member's completions into the router's stream until
// the member stops.
func (r *Router) forward(m *member) {
	for res := range m.rts.Completions() {
		atomic.AddInt64(&m.inflight, -1)
		r.out.Deliver(res)
	}
}

// route picks the member for one task description.
func (r *Router) route(desc core.TaskDescription) (*member, error) {
	if want := desc.Tags["resource"]; want != "" {
		for _, m := range r.members {
			if m.resource == want {
				return m, nil
			}
		}
		return nil, fmt.Errorf("rts: no router member on resource %q for task %s", want, desc.UID)
	}
	var best *member
	var bestFree int64
	for _, m := range r.members {
		if desc.Cores > m.capacity {
			continue // pilot too small for this task
		}
		if desc.GPUs > m.gpus {
			continue // pilot has too few GPUs for this task
		}
		free := int64(m.capacity) - atomic.LoadInt64(&m.inflight)*int64(max(desc.Cores, 1))
		if best == nil || free > bestFree {
			best, bestFree = m, free
		}
	}
	if best == nil {
		return nil, fmt.Errorf("rts: no router member can fit task %s (%d cores, %d GPUs)",
			desc.UID, desc.Cores, desc.GPUs)
	}
	return best, nil
}

// Submit implements core.RTS: tasks are routed individually and submitted
// to their members in per-member batches.
func (r *Router) Submit(tasks []core.TaskDescription) error {
	if !r.started {
		return errors.New("rts: router not started")
	}
	batches := map[*member][]core.TaskDescription{}
	for _, desc := range tasks {
		m, err := r.route(desc)
		if err != nil {
			return err
		}
		batches[m] = append(batches[m], desc)
	}
	for m, batch := range batches {
		if err := m.rts.Submit(batch); err != nil {
			return fmt.Errorf("rts: router member %s: %w", m.name, err)
		}
		atomic.AddInt64(&m.inflight, int64(len(batch)))
		r.out.Submitted(len(batch))
		key := m.name
		v, _ := r.routedTo.LoadOrStore(key, new(int64))
		atomic.AddInt64(v.(*int64), int64(len(batch)))
	}
	return nil
}

// Completions implements core.RTS.
func (r *Router) Completions() <-chan core.TaskResult { return r.out.Completions() }

// Alive implements core.RTS: the router is alive while every member is
// (EnTK's heartbeat then replaces the whole composite, preserving the
// paper's black-box failure model).
func (r *Router) Alive() bool {
	for _, m := range r.members {
		if !m.rts.Alive() {
			return false
		}
	}
	return true
}

// Stop implements core.RTS: the members stop, which ends every forward.
func (r *Router) Stop() error {
	var firstErr error
	r.out.Stop(func() {
		for _, m := range r.members {
			if err := m.rts.Stop(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	return firstErr
}

// Stats implements core.RTS by merging the members' in member order —
// heterogeneous pilots aggregate into one campaign-wide view of occupancy and
// every pilot's store and scheduler pool — under the router's own task
// counters, which see every routed task and every forwarded result.
func (r *Router) Stats() core.RTSStats {
	var st core.RTSStats
	for _, m := range r.members {
		st.Add(m.rts.Stats())
	}
	r.out.Count(&st)
	return st
}

// RoutedTo reports how many tasks were routed to the named member.
func (r *Router) RoutedTo(memberName string) int {
	v, ok := r.routedTo.Load(memberName)
	if !ok {
		return 0
	}
	return int(atomic.LoadInt64(v.(*int64)))
}
