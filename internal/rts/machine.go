package rts

import (
	"time"

	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/hpc"
	"repro/internal/saga"
	"repro/internal/vclock"
)

// MachineConfig describes the simulated computing infrastructure a
// deployment shape runs on.
type MachineConfig struct {
	// Clock drives the clusters, the transfers and the filesystem. Required.
	Clock vclock.Clock
	// Seed drives the filesystem model.
	Seed int64
	// Resources are the pilots' requests, one cluster per entry. The first
	// picks the filesystem: OLCF Lustre on titan, generic XSEDE elsewhere.
	Resources []core.ResourceDesc
	// FSSpec, when non-nil, overrides that filesystem.
	FSSpec *fsim.Spec
	// QueueWait is how long every pilot waits in its batch queue.
	QueueWait time.Duration
}

// Machine is the simulated CI of one embedded run, one entkd or one
// entk-agent: a cluster per resource behind one SAGA session that also
// carries the transfer service (§II-D), and the shared filesystem. The
// session owns the clusters, so Close tears all of it down.
type Machine struct {
	Session *saga.Session
	FS      *fsim.FS
	// Resources are the requests in order, a zero GPU count resolved to the
	// CI's per-node inventory for every allocated node (a Titan pilot brings
	// one GPU per node; the seismic forward solver runs on them). The
	// caller's slice is not written.
	Resources []core.ResourceDesc
}

// NewMachine builds the machine cfg describes.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	transfers, err := saga.NewTransferService(cfg.Clock)
	if err != nil {
		return nil, err
	}
	m := &Machine{Session: saga.NewSession(), Resources: make([]core.ResourceDesc, len(cfg.Resources))}
	m.Session.SetTransferService(transfers)
	for i, res := range cfg.Resources {
		spec, err := hpc.LookupSpec(res.Resource)
		if err != nil {
			m.Close()
			return nil, err
		}
		spec.BaseQueueWait = cfg.QueueWait
		if res.GPUs == 0 && spec.GPUsPerNode > 0 {
			res.GPUs = (res.Cores + spec.CoresPerNode - 1) / spec.CoresPerNode * spec.GPUsPerNode
		}
		m.Resources[i] = res
		cluster, err := hpc.NewCluster(spec, cfg.Clock)
		if err != nil {
			m.Close()
			return nil, err
		}
		if err := m.Session.Register(saga.OwnCluster(cluster)); err != nil {
			cluster.Close()
			m.Close()
			return nil, err
		}
	}
	fsSpec := fsim.XSEDEShared()
	if len(cfg.Resources) > 0 && cfg.Resources[0].Resource == "titan" {
		fsSpec = fsim.OLCFLustre()
	}
	if cfg.FSSpec != nil {
		fsSpec = *cfg.FSSpec
	}
	if m.FS, err = fsim.New(fsSpec, cfg.Clock, cfg.Seed); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// Close tears the clusters and the session down. Idempotent.
func (m *Machine) Close() { m.Session.Close() }
