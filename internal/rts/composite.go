package rts

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
)

// Member is one runtime system inside a Composite. It has no completion
// channel of its own: Add joins its Outbox to the composite's, so it
// delivers straight into the composite's channel while keeping its own stop
// signal, dead flag and counters.
type Member interface {
	Start(ctx context.Context) error
	Submit(tasks []core.TaskDescription) error
	Alive() bool
	Stop() error
	Stats() core.RTSStats
}

// Placement fills place[i] with the index of the member that runs tasks[i].
// It sees the whole batch before any member does; an error refuses all of it.
// It runs under the composite's Submit lock, so it may keep scratch.
type Placement func(tasks []core.TaskDescription, place []int) error

// Composite is a core.RTS over members and a placement — the composability
// the black-box RTS promises (§II-B2). The router (heterogeneous pilots) and
// remoterts.Proxy (a fleet of remote agents) are its two shapes. It starts no
// goroutine: members deliver into its channel themselves.
//
// Failure model: each member's Outbox decides what that member drops, and
// the composite is alive only while every member is, so EnTK's heartbeat
// replaces it whole when any member dies.
type Composite struct {
	out     core.Outbox
	place   Placement
	members []Member
	boxes   []*core.Outbox
	started bool

	mu     sync.Mutex             // Submit's scratch, reused between calls
	where  []int                  // member index per task
	shares []int                  // tasks per member
	batch  []core.TaskDescription // one member's share, gathered
}

// Init readies c, in place, to place tasks with place. c must not be copied
// afterwards.
func (c *Composite) Init(place Placement) {
	c.out.Init(4096) // PilotRTS's capacity: the members' results share it
	c.place = place
}

// Add makes m, which delivers through box, the composite's next member (the
// index placement names it by). It joins box to the composite's Outbox, in
// place of box's Init. Call it before Start.
func (c *Composite) Add(m Member, box *core.Outbox) {
	box.Join(&c.out)
	c.members = append(c.members, m)
	c.boxes = append(c.boxes, box)
	c.shares = append(c.shares, 0)
}

// Members returns the members in Add order, for per-member telemetry.
func (c *Composite) Members() []Member { return c.members }

// Start implements core.RTS: every member starts, in order. On an error the
// caller Stops the composite, which stops the members that did start.
func (c *Composite) Start(ctx context.Context) error {
	if c.started {
		return errors.New("rts: composite already started")
	}
	c.started = true
	for i, m := range c.members {
		if err := m.Start(ctx); err != nil {
			return fmt.Errorf("rts: composite member %d: %w", i, err)
		}
	}
	return nil
}

// Submit implements core.RTS: the batch is placed whole, then each member in
// turn is handed its share, gathered in submission order into one buffer
// reused between members and calls. A member whose Submit fails is killed,
// and so is every member that already took part of the batch: the caller is
// told the batch was refused, so none of it may report. The dead members
// make the composite not alive, and the heartbeat replaces it.
func (c *Composite) Submit(tasks []core.TaskDescription) error {
	if !c.started {
		return errors.New("rts: composite not started")
	}
	if c.out.Stopped() {
		return errors.New("rts: composite stopped")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.where = slices.Grow(c.where[:0], len(tasks))[:len(tasks)]
	if err := c.place(tasks, c.where); err != nil {
		return err
	}
	clear(c.shares)
	for _, k := range c.where {
		c.shares[k]++
	}
	for k, n := range c.shares {
		if n == 0 {
			continue
		}
		batch := slices.Grow(c.batch[:0], n)
		for i, w := range c.where {
			if w == k {
				batch = append(batch, tasks[i])
			}
		}
		err := c.members[k].Submit(batch)
		clear(batch) // hold no description past return (core.RTS.Submit)
		c.batch = batch[:0]
		if err != nil {
			for j, took := range c.shares[:k+1] {
				if took > 0 {
					c.boxes[j].Kill()
				}
			}
			return fmt.Errorf("rts: composite member %d: %w", k, err)
		}
	}
	return nil
}

// Completions implements core.RTS.
func (c *Composite) Completions() <-chan core.TaskResult { return c.out.Completions() }

// Alive implements core.RTS: the composite is alive while every member is.
func (c *Composite) Alive() bool {
	for _, m := range c.members {
		if !m.Alive() {
			return false
		}
	}
	return true
}

// Stop implements core.RTS: every member stops, which ends its deliveries,
// and then the completion channel closes.
func (c *Composite) Stop() error {
	var firstErr error
	c.out.Stop(func() {
		for _, m := range c.members {
			if err := m.Stop(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	return firstErr
}

// Stats implements core.RTS: the members' Stats merged with RTSStats.Add, in
// member order. Each member counts its own tasks, so there is nothing to
// overlay.
func (c *Composite) Stats() core.RTSStats {
	var st core.RTSStats
	for _, m := range c.members {
		st.Add(m.Stats())
	}
	return st
}
