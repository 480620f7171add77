// Package seismic implements the seismic-inversion use case (paper §III-A):
// full-waveform adjoint tomography. The paper runs Specfem3D_GLOBE on Titan
// GPUs; that solver and the earthquake data are not available offline, so
// this package implements a 2-D acoustic finite-difference solver with the
// same workflow roles — forward simulation, data processing, adjoint-source
// creation, adjoint simulation, kernel summation and model update — at
// laptop scale. The workflow structure (Fig 4) and the at-scale execution
// experiment (Fig 10) are built on these pieces.
package seismic

import (
	"errors"
	"fmt"
	"math"
)

// Model is a 2-D velocity model on a regular grid.
type Model struct {
	NX, NZ int
	// DX is the grid spacing (m).
	DX float64
	// V is row-major velocity (m/s), length NX*NZ.
	V []float64
}

// NewModel allocates a homogeneous model.
func NewModel(nx, nz int, dx, v0 float64) *Model {
	m := &Model{NX: nx, NZ: nz, DX: dx, V: make([]float64, nx*nz)}
	for i := range m.V {
		m.V[i] = v0
	}
	return m
}

// Clone deep-copies the model.
func (m *Model) Clone() *Model {
	cp := *m
	cp.V = append([]float64(nil), m.V...)
	return &cp
}

// AddGaussianAnomaly perturbs the model with a Gaussian velocity anomaly
// centred at (cx, cz) in grid units.
func (m *Model) AddGaussianAnomaly(cx, cz, radius, dv float64) {
	for iz := 0; iz < m.NZ; iz++ {
		for ix := 0; ix < m.NX; ix++ {
			dx := float64(ix) - cx
			dz := float64(iz) - cz
			m.V[iz*m.NX+ix] += dv * math.Exp(-(dx*dx+dz*dz)/(2*radius*radius))
		}
	}
}

// Validate reports whether the model is usable.
func (m *Model) Validate() error {
	if m.NX < 8 || m.NZ < 8 {
		return fmt.Errorf("seismic: grid %dx%d too small", m.NX, m.NZ)
	}
	if len(m.V) != m.NX*m.NZ {
		return errors.New("seismic: velocity array has wrong length")
	}
	if m.DX <= 0 {
		return errors.New("seismic: non-positive grid spacing")
	}
	for _, v := range m.V {
		if v <= 0 {
			return errors.New("seismic: non-positive velocity")
		}
	}
	return nil
}

// Source is a point source with a Ricker wavelet.
type Source struct {
	IX, IZ int
	// Freq is the Ricker central frequency (Hz).
	Freq float64
}

// Ricker evaluates the Ricker wavelet at time t with the source's frequency.
func (s Source) Ricker(t float64) float64 {
	a := math.Pi * s.Freq * (t - 1.2/s.Freq)
	a2 := a * a
	return (1 - 2*a2) * math.Exp(-a2)
}

// Receiver records the wavefield at one grid point.
type Receiver struct{ IX, IZ int }

// SimConfig configures one finite-difference run.
type SimConfig struct {
	// NT is the number of time steps.
	NT int
	// DT is the time step (s); must satisfy the CFL condition.
	DT float64
	// SnapshotEvery stores wavefield snapshots for adjoint imaging; 0
	// disables snapshots.
	SnapshotEvery int
	// DampWidth is the absorbing-boundary sponge width in cells.
	DampWidth int
}

// Validate checks the configuration against a model (CFL condition).
func (c *SimConfig) Validate(m *Model) error {
	if c.NT < 2 {
		return errors.New("seismic: need at least 2 time steps")
	}
	if c.DT <= 0 {
		return errors.New("seismic: non-positive time step")
	}
	vmax := 0.0
	for _, v := range m.V {
		if v > vmax {
			vmax = v
		}
	}
	if cfl := vmax * c.DT / m.DX; cfl > 0.7 {
		return fmt.Errorf("seismic: CFL number %.3f exceeds 0.7 (unstable)", cfl)
	}
	return nil
}

// Seismogram is the recording at one receiver over all time steps.
type Seismogram []float64

// ForwardResult holds a forward simulation's outputs.
type ForwardResult struct {
	// Seismograms[r][t] is receiver r's recording.
	Seismograms []Seismogram
	// Snapshots[k] is the wavefield at step k*SnapshotEvery (nil without
	// snapshots).
	Snapshots [][]float64
}

// Forward runs the forward acoustic simulation: a 2-4 leapfrog scheme with
// sponge boundaries.
func Forward(m *Model, src Source, recs []Receiver, cfg SimConfig) (*ForwardResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(m); err != nil {
		return nil, err
	}
	if src.IX < 1 || src.IX >= m.NX-1 || src.IZ < 1 || src.IZ >= m.NZ-1 {
		return nil, errors.New("seismic: source outside interior")
	}
	for _, r := range recs {
		if r.IX < 0 || r.IX >= m.NX || r.IZ < 0 || r.IZ >= m.NZ {
			return nil, errors.New("seismic: receiver outside grid")
		}
	}
	inject := func(u []float64, it int) {
		u[src.IZ*m.NX+src.IX] += src.Ricker(float64(it)*cfg.DT) * cfg.DT * cfg.DT
	}
	return propagate(m, cfg, inject, recs, true)
}

// propagate is the shared FD engine for forward and adjoint runs. injector
// adds source terms into the updated field each step.
func propagate(m *Model, cfg SimConfig, injector func(u []float64, it int), recs []Receiver, forwardTime bool) (*ForwardResult, error) {
	nx, nz := m.NX, m.NZ
	n := nx * nz
	prev := make([]float64, n)
	cur := make([]float64, n)
	next := make([]float64, n)

	damp := spongeProfile(m, cfg.DampWidth)
	c2dt2 := make([]float64, n)
	inv := 1.0 / (m.DX * m.DX)
	for i, v := range m.V {
		c2dt2[i] = v * v * cfg.DT * cfg.DT * inv
	}

	res := &ForwardResult{}
	res.Seismograms = make([]Seismogram, len(recs))
	for i := range res.Seismograms {
		res.Seismograms[i] = make(Seismogram, cfg.NT)
	}

	for it := 0; it < cfg.NT; it++ {
		for iz := 1; iz < nz-1; iz++ {
			row := iz * nx
			for ix := 1; ix < nx-1; ix++ {
				i := row + ix
				lap := cur[i-1] + cur[i+1] + cur[i-nx] + cur[i+nx] - 4*cur[i]
				next[i] = (2*cur[i] - prev[i] + c2dt2[i]*lap) * damp[i]
			}
		}
		step := it
		if !forwardTime {
			step = cfg.NT - 1 - it
		}
		injector(next, step)
		for r, rec := range recs {
			res.Seismograms[r][it] = next[rec.IZ*nx+rec.IX]
		}
		if cfg.SnapshotEvery > 0 && it%cfg.SnapshotEvery == 0 {
			snap := make([]float64, n)
			copy(snap, next)
			res.Snapshots = append(res.Snapshots, snap)
		}
		prev, cur, next = cur, next, prev
	}
	return res, nil
}

// spongeProfile builds the absorbing-boundary damping multipliers.
func spongeProfile(m *Model, width int) []float64 {
	n := m.NX * m.NZ
	damp := make([]float64, n)
	for i := range damp {
		damp[i] = 1
	}
	if width <= 0 {
		return damp
	}
	coef := func(d int) float64 {
		x := float64(width-d) / float64(width)
		return math.Exp(-0.0025 * x * x * float64(width) * float64(width) / 16)
	}
	for iz := 0; iz < m.NZ; iz++ {
		for ix := 0; ix < m.NX; ix++ {
			d := min4(ix, iz, m.NX-1-ix, m.NZ-1-iz)
			if d < width {
				damp[iz*m.NX+ix] = coef(d)
			}
		}
	}
	return damp
}

func min4(a, b, c, d int) int {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	if d < m {
		m = d
	}
	return m
}
