package rts

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// NewRouter builds the router: a Composite over one PilotRTS per member
// configuration, each typically holding a pilot on a different CI. It
// implements the paper's future-work capability (i), "dynamic mapping of
// tasks onto heterogeneous resources", behind the same black-box core.RTS
// interface — demonstrating the composability the architecture promises
// (§II-B2). The seismic use case's requirement to "interleave simulation
// tasks with data-processing tasks, each requiring respectively
// leadership-scale systems and moderately sized clusters" (§III-A) is
// exactly this router with a Titan member and an XSEDE member.
//
// Placement, per task:
//
//  1. an explicit "resource" tag selects the member on that CI;
//  2. otherwise the task goes to the member with the most free capacity
//     among those whose pilot has enough cores and GPUs for it
//     (least-loaded placement).
func NewRouter(members []Config) (*Composite, error) {
	if len(members) == 0 {
		return nil, errors.New("rts: router needs at least one member")
	}
	pilots := make(router, len(members))
	for i, cfg := range members {
		if cfg.Resource.Cores <= 0 || cfg.Resource.GPUs < 0 {
			return nil, fmt.Errorf("rts: router member on %q needs cores and no negative GPUs", cfg.Resource.Resource)
		}
		p, err := newPilot(cfg)
		if err != nil {
			return nil, err
		}
		pilots[i] = p
	}
	c := &Composite{}
	c.Init(pilots.place)
	for _, p := range pilots {
		c.Add(p, &p.out)
	}
	return c, nil
}

// router is the router's members, in placement order.
type router []*PilotRTS

// place is the router's Placement. A member's load is its tasks in flight,
// read from its own Outbox, each counted at the placed task's cores (the
// router does not see core-level state).
func (r router) place(tasks []core.TaskDescription, place []int) error {
	for i := range tasks {
		desc := &tasks[i]
		best := -1
		if want := desc.Tags["resource"]; want != "" {
			for k, p := range r {
				if p.cfg.Resource.Resource == want {
					best = k
					break
				}
			}
			if best < 0 {
				return fmt.Errorf("rts: no router member on resource %q for task %s", want, desc.UID)
			}
		} else {
			var bestFree int64
			for k, p := range r {
				res := p.cfg.Resource
				if desc.Cores > res.Cores || desc.GPUs > res.GPUs {
					continue // pilot too small for this task
				}
				free := int64(res.Cores) - p.out.InFlight()*int64(max(desc.Cores, 1))
				if best < 0 || free > bestFree {
					best, bestFree = k, free
				}
			}
			if best < 0 {
				return fmt.Errorf("rts: no router member can fit task %s (%d cores, %d GPUs)",
					desc.UID, desc.Cores, desc.GPUs)
			}
		}
		place[i] = best
	}
	return nil
}
