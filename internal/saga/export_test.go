package saga

import (
	"fmt"
	"sort"
)

// Terminal reports whether s is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// Resources lists registered resource names, sorted.
func (s *Session) Resources() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.adapters))
	for n := range s.adapters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Protocols lists the supported protocols in the paper's order.
func Protocols() []Protocol {
	return []Protocol{ProtoSCP, ProtoGSISCP, ProtoSFTP, ProtoGSISFTP, ProtoGlobus, ProtoCP}
}

// SetModel overrides one protocol's cost model (calibration hook).
func (s *TransferService) SetModel(p Protocol, m TransferModel) error {
	if m.BytesPerSec <= 0 {
		return fmt.Errorf("saga: protocol %q: non-positive bandwidth", p)
	}
	if m.SetupLatency < 0 {
		return fmt.Errorf("saga: protocol %q: negative setup latency", p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models[p] = m
	return nil
}

// Transfer routes a data-movement request through the session's transfer
// service.
func (s *Session) Transfer(req TransferRequest) (TransferResult, error) {
	ts := s.Transfers()
	if ts == nil {
		return TransferResult{}, fmt.Errorf("saga: session has no transfer service")
	}
	return ts.Transfer(req)
}
