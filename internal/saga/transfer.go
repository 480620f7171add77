package saga

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Protocol identifies one file-transfer mechanism. The paper (§II-D) lists
// the mechanisms the SAGA layer enacts: "(gsi)-scp, (gsi)-sftp, Globus
// Online, and local and shared filesystem operations via cp".
type Protocol string

// Supported transfer protocols.
const (
	ProtoCP      Protocol = "cp"
	ProtoSCP     Protocol = "scp"
	ProtoGSISCP  Protocol = "gsiscp"
	ProtoSFTP    Protocol = "sftp"
	ProtoGSISFTP Protocol = "gsisftp"
	ProtoGlobus  Protocol = "globus"
)

// TransferModel is the cost model of one protocol. Per the paper, "the size
// of the data along with network bandwidth and latency or filesystem
// performance determine the data staging durations and are independent of
// the performance of the RTS" — so the model is exactly latency plus
// size/bandwidth.
type TransferModel struct {
	// SetupLatency is the per-transfer connection/authentication cost
	// (SSH handshake, GSI delegation, Globus service negotiation).
	SetupLatency time.Duration
	// BytesPerSec is the sustained payload bandwidth.
	BytesPerSec float64
}

// Duration returns the modelled virtual time to move n bytes.
func (m TransferModel) Duration(n int64) time.Duration {
	d := m.SetupLatency
	if n > 0 && m.BytesPerSec > 0 {
		d += time.Duration(float64(n) / m.BytesPerSec * float64(time.Second))
	}
	return d
}

// defaultModels calibrates the protocol catalog. Interactive SSH-based
// mechanisms pay a modest handshake and a single-stream bandwidth; GSI
// variants add certificate delegation; Globus Online pays a large service
// negotiation latency but moves data with striped parallel streams, so it
// overtakes scp only for large payloads (the crossover is ≈0.6 GB with
// these parameters — seismograms of 0.15–1.5 GB, §III-A, sit on both
// sides of it).
func defaultModels() map[Protocol]TransferModel {
	const mb = 1 << 20
	return map[Protocol]TransferModel{
		ProtoCP:      {SetupLatency: 5 * time.Millisecond, BytesPerSec: 500 * mb},
		ProtoSCP:     {SetupLatency: 300 * time.Millisecond, BytesPerSec: 100 * mb},
		ProtoGSISCP:  {SetupLatency: 500 * time.Millisecond, BytesPerSec: 100 * mb},
		ProtoSFTP:    {SetupLatency: 300 * time.Millisecond, BytesPerSec: 60 * mb},
		ProtoGSISFTP: {SetupLatency: 500 * time.Millisecond, BytesPerSec: 60 * mb},
		ProtoGlobus:  {SetupLatency: 5 * time.Second, BytesPerSec: 400 * mb},
	}
}

// TransferRequest asks for one file movement.
type TransferRequest struct {
	Bytes int64
	// Protocol defaults to cp when empty (local/shared filesystem
	// operation, RP's default staging mechanism).
	Protocol Protocol
}

// TransferResult reports one enacted transfer.
type TransferResult struct {
	Duration time.Duration
}

// TransferService is the data-management half of the SAGA layer: a uniform
// Transfer method over per-protocol adapters, mirroring the uniform job
// methods of Session. Transfers run concurrently — wide-area bandwidth is
// per-stream in this model, while shared-filesystem staging contention is
// modelled separately by the fsim package.
type TransferService struct {
	clock vclock.Clock

	mu     sync.Mutex
	models map[Protocol]TransferModel
}

// NewTransferService returns a service with the default protocol catalog.
func NewTransferService(clock vclock.Clock) (*TransferService, error) {
	if clock == nil {
		return nil, fmt.Errorf("saga: transfer service requires a clock")
	}
	return &TransferService{clock: clock, models: defaultModels()}, nil
}

// Model returns the cost model for a protocol.
func (s *TransferService) Model(p Protocol) (TransferModel, error) {
	if p == "" {
		p = ProtoCP
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[p]
	if !ok {
		return TransferModel{}, fmt.Errorf("saga: unsupported transfer protocol %q", p)
	}
	return m, nil
}

// Estimate returns the modelled duration of a request without enacting it.
func (s *TransferService) Estimate(req TransferRequest) (time.Duration, error) {
	if req.Bytes < 0 {
		return 0, fmt.Errorf("saga: transfer of negative size (%d bytes)", req.Bytes)
	}
	m, err := s.Model(req.Protocol)
	if err != nil {
		return 0, err
	}
	return m.Duration(req.Bytes), nil
}

// Transfer enacts one file movement, sleeping its modelled duration on the
// virtual clock.
func (s *TransferService) Transfer(req TransferRequest) (TransferResult, error) {
	d, err := s.Estimate(req)
	if err != nil {
		return TransferResult{}, err
	}
	if d > 0 {
		s.clock.Sleep(d)
	}
	return TransferResult{Duration: d}, nil
}

// SetTransferService attaches data management to the session, completing
// SAGA's "uniform methods for job and data management" (§II-D).
func (s *Session) SetTransferService(ts *TransferService) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.transfers = ts
}

// Transfers returns the session's transfer service (nil when data
// management is not configured).
func (s *Session) Transfers() *TransferService {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transfers
}
