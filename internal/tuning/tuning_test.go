package tuning

import (
	"sync"
	"testing"
)

func TestFixedCollapsesBounds(t *testing.T) {
	l := Fixed(1024, 4)
	if got := l.BatchSize(); got != 1024 {
		t.Fatalf("BatchSize = %d, want 1024", got)
	}
	if got := l.Schedulers(); got != 4 {
		t.Fatalf("Schedulers = %d, want 4", got)
	}
	if l.MinBatch() != 1024 || l.MaxBatch() != 1024 {
		t.Fatalf("batch bounds = [%d, %d], want collapsed at 1024", l.MinBatch(), l.MaxBatch())
	}
	// Every set is a no-op: the disabled-autotune contract.
	if from, to, changed := l.SetBatchSize(64); changed || from != 1024 || to != 1024 {
		t.Fatalf("SetBatchSize on Fixed = (%d, %d, %v), want no-op", from, to, changed)
	}
	if l.Version() != 0 {
		t.Fatalf("Version = %d after no-op sets, want 0", l.Version())
	}
}

func TestSetClampsIntoBounds(t *testing.T) {
	l := NewBounded(64, 8, 512, 2)
	if from, to, changed := l.SetBatchSize(4096); !changed || from != 64 || to != 512 {
		t.Fatalf("SetBatchSize(4096) = (%d, %d, %v), want clamp to 512", from, to, changed)
	}
	if from, to, changed := l.SetBatchSize(1); !changed || from != 512 || to != 8 {
		t.Fatalf("SetBatchSize(1) = (%d, %d, %v), want clamp to 8", from, to, changed)
	}
	if l.Version() != 2 {
		t.Fatalf("Version = %d after 2 changes, want 2", l.Version())
	}
	// A set that clamps onto the current value is a no-op.
	if _, _, changed := l.SetBatchSize(2); changed {
		t.Fatal("SetBatchSize(2) changed twice in a row; clamp should no-op")
	}
	if l.Version() != 2 {
		t.Fatalf("Version = %d after no-op, want 2", l.Version())
	}
	if l.Schedulers() != 2 {
		t.Fatalf("Schedulers = %d, want the fixed 2", l.Schedulers())
	}
}

func TestBoundsNormalized(t *testing.T) {
	// Negative and inverted bounds floor at 1 and un-invert; the scheduler
	// count floors at 1.
	l := NewBounded(-5, -3, -8, 0)
	if l.MinBatch() != 1 || l.MaxBatch() != 1 {
		t.Fatalf("batch bounds = [%d, %d], want [1, 1]", l.MinBatch(), l.MaxBatch())
	}
	if l.BatchSize() != 1 {
		t.Fatalf("BatchSize = %d, want clamped to 1", l.BatchSize())
	}
	if l.Schedulers() != 1 {
		t.Fatalf("Schedulers = %d, want floored to 1", l.Schedulers())
	}
	if l := NewBounded(5, 7, 2, 3); l.MinBatch() != 7 || l.MaxBatch() != 7 || l.BatchSize() != 7 {
		t.Fatalf("inverted bounds = [%d, %d] at %d, want [7, 7] at 7", l.MinBatch(), l.MaxBatch(), l.BatchSize())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	l := NewBounded(64, 1, 4096, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if b := l.BatchSize(); b < 1 || b > 4096 {
					panic("batch escaped bounds")
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int) {
			defer writers.Done()
			for i := 0; i < 1000; i++ {
				l.SetBatchSize(1 << uint((seed+i)%13))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
}
