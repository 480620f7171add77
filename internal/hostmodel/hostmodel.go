// Package hostmodel models the performance of the machine on which EnTK
// itself runs (paper §IV-A: "Setup and management overheads depend on the
// memory and CPU performance of the host on which EnTK is executed, while
// the tear-down overhead on the Python version utilized").
//
// The paper ran XSEDE experiments from a slow TACC virtual machine and Titan
// experiments from an ORNL login node, observing ~3x lower EnTK overheads on
// the latter. Each Model charges a virtual-time cost for the operations that
// dominate those overheads: traversing the messaging infrastructure,
// spawning components, and tearing processes down. The strain parameters
// reproduce the super-linear growth of the management overhead beyond ~2048
// concurrently managed tasks (paper Fig 8).
package hostmodel

import (
	"fmt"
	"time"
)

// Model is the virtual-time cost model of an EnTK host.
type Model struct {
	// MgmtBase is the fixed management cost of processing one application:
	// translating the workflow and setting up task bookkeeping. The paper's
	// management overhead is dominated by this term — it is nearly
	// invariant with task count until the host strains (Fig 8).
	MgmtBase time.Duration
	// MsgCost is charged once per message traversing the broker on behalf
	// of the workflow layer (task hand-offs and state synchronization).
	MsgCost time.Duration
	// SpawnCost is charged once per component or subcomponent instantiated
	// during EnTK setup (the Python analogue is process/thread spawning).
	SpawnCost time.Duration
	// TeardownCost is charged once per component or subcomponent stopped
	// during EnTK tear-down (the Python analogue is join/terminate time).
	TeardownCost time.Duration
	// ValidationCost is charged once per task during application and
	// resource-description validation at setup.
	ValidationCost time.Duration
	// StrainThreshold is the number of concurrently managed tasks beyond
	// which the host saturates and per-message costs inflate.
	StrainThreshold int
	// StrainFactor multiplies MsgCost for the fraction of tasks beyond
	// StrainThreshold. 0 disables straining.
	StrainFactor float64
}

// EffectiveMsgCost returns the per-message cost when the host is managing
// concurrent tasks, applying strain beyond the threshold.
func (m *Model) EffectiveMsgCost(concurrent int) time.Duration {
	c := m.MsgCost
	if m.StrainThreshold > 0 && m.StrainFactor > 0 && concurrent > m.StrainThreshold {
		over := float64(concurrent-m.StrainThreshold) / float64(m.StrainThreshold)
		c += time.Duration(float64(m.MsgCost) * m.StrainFactor * over)
	}
	return c
}

// Catalog of hosts used in the paper's experiments. Costs are calibrated so
// the reproduced overheads land in the bands the paper reports (Fig 7:
// setup ≈0.1 s, management ≈10 s for 16 tasks on the VM and ≈3 s on Titan's
// login node, tear-down 1–10 s).
var catalog = map[string]*Model{
	// The TACC virtual machine from which all XSEDE runs were driven.
	"xsede-vm": {
		MgmtBase:        9500 * time.Millisecond,
		MsgCost:         1 * time.Millisecond,
		SpawnCost:       11 * time.Millisecond,
		TeardownCost:    450 * time.Millisecond,
		ValidationCost:  2 * time.Millisecond,
		StrainThreshold: 2048,
		StrainFactor:    3.5,
	},
	// The ORNL login node: faster memory and CPU (paper §IV-A).
	"titan-login": {
		MgmtBase:        2800 * time.Millisecond,
		MsgCost:         50 * time.Microsecond,
		SpawnCost:       5 * time.Millisecond,
		TeardownCost:    160 * time.Millisecond,
		ValidationCost:  200 * time.Microsecond,
		StrainThreshold: 2048,
		StrainFactor:    3.5,
	},
	// A free host model for unit tests: zero cost everywhere.
	"null": {},
}

// Lookup returns the named host model.
func Lookup(name string) (*Model, error) {
	m, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("hostmodel: unknown host %q", name)
	}
	cp := *m
	return &cp, nil
}

// Null returns the zero-cost host model, for tests.
func Null() *Model {
	m, _ := Lookup("null")
	return m
}

// ForCI returns the host model the paper used to drive experiments on the
// given computing infrastructure: Titan runs were driven from an ORNL login
// node, everything else from the TACC VM.
func ForCI(ci string) *Model {
	if ci == "titan" {
		m, _ := Lookup("titan-login")
		return m
	}
	m, _ := Lookup("xsede-vm")
	return m
}
