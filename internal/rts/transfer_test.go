package rts

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/saga"
)

// transferTask builds a sleep task with the given input and output staging.
func transferTask(in, out []core.StagingDirective) core.TaskDescription {
	return core.TaskDescription{
		UID:        core.NewUID("task"),
		Executable: "sleep",
		Duration:   time.Second,
		Cores:      1,
		Input:      in,
		Output:     out,
	}
}

func TestTransferStagingAccounted(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	desc := transferTask(
		[]core.StagingDirective{{
			Source: "remote:/data/quake.h5", Target: "quake.h5",
			Action: core.StagingTransfer, Bytes: 40 << 20, Protocol: "scp",
		}},
		[]core.StagingDirective{{
			Source: "seismogram.h5", Target: "archive:/out/seismogram.h5",
			Action: core.StagingTransfer, Bytes: 150 << 20, Protocol: "globus",
		}},
	)
	if err := h.rts.Submit([]core.TaskDescription{desc}); err != nil {
		t.Fatal(err)
	}
	res := collect(t, h, 1)[0]
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d (%s)", res.ExitCode, res.Error)
	}
	// scp of 40 MB: 0.3 s + 0.4 s = 0.7 s; globus of 150 MB: 5 s + 0.375 s.
	var want time.Duration
	for _, req := range []saga.TransferRequest{{Bytes: 40 << 20, Protocol: "scp"}, {Bytes: 150 << 20, Protocol: "globus"}} {
		d, err := h.session.Transfers().Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		want += d
	}
	if res.StagingTime != want {
		t.Fatalf("staging time %v, want both transfers' %v", res.StagingTime, want)
	}
}

func TestUnknownTransferProtocolFailsTask(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	desc := transferTask([]core.StagingDirective{{
		Source: "remote:/in", Target: "in",
		Action: core.StagingTransfer, Bytes: 1, Protocol: "warp-drive",
	}}, nil)
	if err := h.rts.Submit([]core.TaskDescription{desc}); err != nil {
		t.Fatal(err)
	}
	res := collect(t, h, 1)[0]
	if res.ExitCode == 0 {
		t.Fatal("task with unknown transfer protocol succeeded")
	}
	if !strings.Contains(res.Error, "input staging failed") {
		t.Fatalf("error = %q, want input-staging failure", res.Error)
	}
}

func TestOutputTransferFailureFailsTask(t *testing.T) {
	h := newHarness(t, nil)
	start(t, h)
	desc := transferTask(nil, []core.StagingDirective{{
		Source: "out", Target: "remote:/out",
		Action: core.StagingTransfer, Bytes: 1, Protocol: "warp-drive",
	}})
	if err := h.rts.Submit([]core.TaskDescription{desc}); err != nil {
		t.Fatal(err)
	}
	res := collect(t, h, 1)[0]
	if res.ExitCode == 0 {
		t.Fatal("task with failing output transfer succeeded")
	}
	if !strings.Contains(res.Error, "output staging failed") {
		t.Fatalf("error = %q, want output-staging failure", res.Error)
	}
}

func TestTransferFallsBackToCopyWithoutService(t *testing.T) {
	// A bare session (no transfer service) degrades transfers to shared-
	// filesystem copies so the application still runs.
	h := newHarness(t, nil)
	h.session.SetTransferService(nil)
	start(t, h)
	desc := transferTask([]core.StagingDirective{{
		Source: "remote:/in", Target: "in",
		Action: core.StagingTransfer, Bytes: 1 << 20, Protocol: "scp",
	}}, nil)
	if err := h.rts.Submit([]core.TaskDescription{desc}); err != nil {
		t.Fatal(err)
	}
	res := collect(t, h, 1)[0]
	if res.ExitCode != 0 {
		t.Fatalf("fallback run failed: %d (%s)", res.ExitCode, res.Error)
	}
}

func TestSplitStaging(t *testing.T) {
	dirs := []core.StagingDirective{
		{Action: core.StagingCopy},
		{Action: core.StagingTransfer},
		{Action: core.StagingLink},
		{Action: core.StagingTransfer},
		{Action: core.StagingMove},
	}
	local, remote := splitStaging(dirs)
	if len(local) != 3 || len(remote) != 2 {
		t.Fatalf("split = %d local, %d remote", len(local), len(remote))
	}
}

func TestGPUSchedulingBoundsConcurrency(t *testing.T) {
	// A 40-core pilot with 2 GPUs: four 1-core/1-GPU tasks can only run two
	// at a time, so the makespan is two task generations despite the free
	// cores.
	h := newHarness(t, func(cfg *Config) {
		cfg.Resource.GPUs = 2
		cfg.Model = FastModel()
	})
	start(t, h)
	began := h.clock.Now()
	var descs []core.TaskDescription
	for i := 0; i < 4; i++ {
		descs = append(descs, core.TaskDescription{
			UID:        core.NewUID("task"),
			Executable: "sleep",
			Duration:   100 * time.Second,
			Cores:      1,
			GPUs:       1,
		})
	}
	if err := h.rts.Submit(descs); err != nil {
		t.Fatal(err)
	}
	results := collect(t, h, 4)
	for _, res := range results {
		if res.ExitCode != 0 {
			t.Fatalf("exit = %d (%s)", res.ExitCode, res.Error)
		}
	}
	elapsed := h.clock.Now().Sub(began)
	if elapsed < 200*time.Second {
		t.Fatalf("elapsed %v: GPU limit of 2 must force two generations (>= 200 s)", elapsed)
	}
}

func TestOversizedGPUTaskFails(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.Resource.GPUs = 1 })
	start(t, h)
	desc := core.TaskDescription{
		UID:        core.NewUID("task"),
		Executable: "sleep",
		Duration:   time.Second,
		Cores:      1,
		GPUs:       4,
	}
	if err := h.rts.Submit([]core.TaskDescription{desc}); err != nil {
		t.Fatal(err)
	}
	res := collect(t, h, 1)[0]
	if res.ExitCode == 0 {
		t.Fatal("task needing 4 GPUs succeeded on a 1-GPU pilot")
	}
	if !strings.Contains(res.Error, "GPUs") {
		t.Fatalf("error = %q", res.Error)
	}
}

func TestCPUTasksIgnoreGPULimit(t *testing.T) {
	// GPU-less tasks on a GPU-less pilot run unconstrained.
	h := newHarness(t, nil)
	start(t, h)
	var descs []core.TaskDescription
	for i := 0; i < 8; i++ {
		descs = append(descs, core.TaskDescription{
			UID:        core.NewUID("task"),
			Executable: "sleep",
			Duration:   10 * time.Second,
			Cores:      1,
		})
	}
	if err := h.rts.Submit(descs); err != nil {
		t.Fatal(err)
	}
	for _, res := range collect(t, h, 8) {
		if res.ExitCode != 0 {
			t.Fatalf("exit = %d (%s)", res.ExitCode, res.Error)
		}
	}
}
