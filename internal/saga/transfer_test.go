package saga

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
)

func newTestTransfers(t *testing.T) *TransferService {
	t.Helper()
	ts, err := NewTransferService(vclock.NewScaled(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTransferServiceRequiresClock(t *testing.T) {
	if _, err := NewTransferService(nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestDefaultCatalogCoversAllProtocols(t *testing.T) {
	ts := newTestTransfers(t)
	for _, p := range Protocols() {
		m, err := ts.Model(p)
		if err != nil {
			t.Fatalf("protocol %s missing from default catalog: %v", p, err)
		}
		if m.BytesPerSec <= 0 {
			t.Fatalf("protocol %s has non-positive bandwidth", p)
		}
	}
}

func TestEmptyProtocolDefaultsToCP(t *testing.T) {
	ts := newTestTransfers(t)
	got, err := ts.Estimate(TransferRequest{Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ts.Estimate(TransferRequest{Bytes: 1 << 20, Protocol: ProtoCP})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("default estimate %v != cp estimate %v", got, want)
	}
	res, err := ts.Transfer(TransferRequest{Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != want {
		t.Fatalf("default transfer took %v, want the cp estimate %v", res.Duration, want)
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	ts := newTestTransfers(t)
	if _, err := ts.Transfer(TransferRequest{Bytes: 1, Protocol: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	ts := newTestTransfers(t)
	if _, err := ts.Transfer(TransferRequest{Bytes: -1, Protocol: ProtoSCP}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestTransferDurationModel(t *testing.T) {
	m := TransferModel{SetupLatency: time.Second, BytesPerSec: 100}
	if got, want := m.Duration(0), time.Second; got != want {
		t.Fatalf("zero-byte duration = %v, want setup latency %v", got, want)
	}
	if got, want := m.Duration(200), 3*time.Second; got != want {
		t.Fatalf("200B duration = %v, want %v", got, want)
	}
}

func TestGSIVariantsCostMoreThanPlain(t *testing.T) {
	ts := newTestTransfers(t)
	for _, pair := range [][2]Protocol{{ProtoSCP, ProtoGSISCP}, {ProtoSFTP, ProtoGSISFTP}} {
		plain, err := ts.Estimate(TransferRequest{Bytes: 1 << 20, Protocol: pair[0]})
		if err != nil {
			t.Fatal(err)
		}
		gsi, err := ts.Estimate(TransferRequest{Bytes: 1 << 20, Protocol: pair[1]})
		if err != nil {
			t.Fatal(err)
		}
		if gsi <= plain {
			t.Fatalf("%s (%v) should cost more than %s (%v): certificate delegation",
				pair[1], gsi, pair[0], plain)
		}
	}
}

// TestGlobusCrossover checks the calibrated behaviour the catalog documents:
// scp wins for small payloads (Globus pays its service-negotiation latency),
// Globus wins for large payloads (striped parallel streams).
func TestGlobusCrossover(t *testing.T) {
	ts := newTestTransfers(t)
	small, large := int64(10<<20), int64(4<<30) // 10 MB vs 4 GB
	scpSmall, _ := ts.Estimate(TransferRequest{Bytes: small, Protocol: ProtoSCP})
	globusSmall, _ := ts.Estimate(TransferRequest{Bytes: small, Protocol: ProtoGlobus})
	scpLarge, _ := ts.Estimate(TransferRequest{Bytes: large, Protocol: ProtoSCP})
	globusLarge, _ := ts.Estimate(TransferRequest{Bytes: large, Protocol: ProtoGlobus})
	if scpSmall >= globusSmall {
		t.Fatalf("scp should beat globus on 10 MB: scp %v, globus %v", scpSmall, globusSmall)
	}
	if globusLarge >= scpLarge {
		t.Fatalf("globus should beat scp on 4 GB: globus %v, scp %v", globusLarge, scpLarge)
	}
}

func TestSetModelValidation(t *testing.T) {
	ts := newTestTransfers(t)
	if err := ts.SetModel(ProtoSCP, TransferModel{BytesPerSec: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if err := ts.SetModel(ProtoSCP, TransferModel{SetupLatency: -1, BytesPerSec: 1}); err == nil {
		t.Fatal("negative latency accepted")
	}
	if err := ts.SetModel("custom", TransferModel{SetupLatency: time.Second, BytesPerSec: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Estimate(TransferRequest{Bytes: 1, Protocol: "custom"}); err != nil {
		t.Fatalf("registered custom protocol not usable: %v", err)
	}
}

func TestConcurrentTransfers(t *testing.T) {
	ts := newTestTransfers(t)
	want, err := ts.Estimate(TransferRequest{Bytes: 1 << 10, Protocol: ProtoSCP})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var done atomic.Int32
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := ts.Transfer(TransferRequest{Bytes: 1 << 10, Protocol: ProtoSCP}); err == nil && res.Duration == want {
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := done.Load(); got != 32 {
		t.Fatalf("transfers = %d, want 32", got)
	}
}

func TestSessionTransferRouting(t *testing.T) {
	s := NewSession()
	if _, err := s.Transfer(TransferRequest{Bytes: 1}); err == nil {
		t.Fatal("session without transfer service accepted a transfer")
	}
	ts := newTestTransfers(t)
	s.SetTransferService(ts)
	if s.Transfers() != ts {
		t.Fatal("transfer service not attached")
	}
	req := TransferRequest{Bytes: 1 << 20, Protocol: ProtoSFTP}
	want, err := ts.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != want {
		t.Fatalf("result = %+v, want the sftp estimate %v", res, want)
	}
}

// Property: for every protocol, duration is monotonically non-decreasing in
// payload size and always at least the setup latency.
func TestTransferDurationMonotoneProperty(t *testing.T) {
	ts := newTestTransfers(t)
	check := func(rawA, rawB uint32, pick uint8) bool {
		protos := Protocols()
		p := protos[int(pick)%len(protos)]
		a, b := int64(rawA), int64(rawB)
		if a > b {
			a, b = b, a
		}
		da, err := ts.Estimate(TransferRequest{Bytes: a, Protocol: p})
		if err != nil {
			return false
		}
		db, err := ts.Estimate(TransferRequest{Bytes: b, Protocol: p})
		if err != nil {
			return false
		}
		m, err := ts.Model(p)
		if err != nil {
			return false
		}
		return da <= db && da >= m.SetupLatency
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
