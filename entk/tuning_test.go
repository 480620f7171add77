package entk

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestTuningValidate(t *testing.T) {
	if err := (Tuning{}).Validate(); err != nil {
		t.Fatalf("zero tuning must be valid: %v", err)
	}
	ok := Tuning{
		BatchSize:        64,
		QueueShards:      4,
		SchedulerWorkers: 2,
		SnapshotEvery:    -1, // negative disables snapshots — legal
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid tuning rejected: %v", err)
	}
	cases := []struct {
		name string
		tun  Tuning
		want string
	}{
		{"negative batch", Tuning{BatchSize: -1}, "BatchSize"},
		{"negative shards", Tuning{QueueShards: -1}, "QueueShards"},
		{"negative schedulers", Tuning{SchedulerWorkers: -1}, "SchedulerWorkers"},
	}
	for _, c := range cases {
		err := c.tun.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error mentioning %q", c.name, err, c.want)
		}
	}
}

// AppConfig.Tuning is the one place the knobs are set, and every one of
// them reaches core.Config.
func TestTuningReachesCoreConfig(t *testing.T) {
	cfg := AppConfig{Tuning: Tuning{BatchSize: 10, QueueShards: 2, SchedulerWorkers: 2, SnapshotEvery: 100}}
	rt, err := cfg.resolveTuning()
	if err != nil {
		t.Fatal(err)
	}
	var c core.Config
	rt.applyCore(&c)
	if c.EmgrBatch != 10 || c.QueueShards != 2 || c.SchedulerWorkers != 2 || c.SnapshotEvery != 100 {
		t.Fatalf("knobs lost on the way to core.Config: %+v", c)
	}
}

// An invalid tuning is rejected at AppManager construction, before any
// infrastructure is built.
func TestTuningRejectedAtConstruction(t *testing.T) {
	_, err := NewAppManager(AppConfig{
		Resource: Resource{Name: "supermic", Cores: 4, Walltime: 3600e9},
		Tuning:   Tuning{BatchSize: -1},
	})
	var ke *KnobError
	if !errors.As(err, &ke) || ke.Knob != "BatchSize" {
		t.Fatalf("want a BatchSize KnobError, got %v", err)
	}
}
