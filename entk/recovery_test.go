package entk

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// The chaos harness: run a durable application, kill it at a randomized
// point (Run.Cancel force-states without journaling — indistinguishable
// from a crash to the journal), resume from the journal directory, repeat
// until an incarnation completes uninterrupted. After every incarnation the
// harness reads the directory with core.ReadRunDir and asserts the
// durability contract of docs/recovery.md:
//
//   - every state record is a step a run or a resumed run takes, and every
//     task the RTS audit log was handed is one the journal names;
//   - exactly-once: a task DONE before the incarnation was not pushed to the
//     RTS during it (its push count in the audit log is unchanged);
//   - conservation, at the end: every task DONE and none in flight.
//
// Seeds are fixed so CI failures reproduce; each seed drives one full
// multi-incarnation scenario per snapshot cadence.

// chaosApp builds the scenario's application with deterministic structural
// UIDs, so every incarnation names each entity identically.
func chaosApp() []*Pipeline {
	var pipes []*Pipeline
	for pi := 0; pi < 2; pi++ {
		p := NewPipeline(fmt.Sprintf("chaos-p%d", pi))
		p.UID = fmt.Sprintf("pipeline.%03d", pi)
		for si := 0; si < 2; si++ {
			s := NewStage(fmt.Sprintf("s%d", si))
			s.UID = fmt.Sprintf("stage.%03d.%03d", pi, si)
			for ti := 0; ti < 6; ti++ {
				task := NewTask(fmt.Sprintf("t%02d", ti))
				task.UID = fmt.Sprintf("task.%03d.%03d.%05d", pi, si, ti)
				task.Executable = "sleep"
				task.Duration = 20 * time.Second
				s.AddTask(task) //nolint:errcheck
			}
			p.AddStage(s) //nolint:errcheck
		}
		pipes = append(pipes, p)
	}
	return pipes
}

const chaosTasks = 2 * 2 * 6

// readRunDir reads dir with core.ReadRunDir, failing the test on an error or
// on a violation.
func readRunDir(t *testing.T, dir string) core.RunDir {
	t.Helper()
	rd, err := core.ReadRunDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Violations) > 0 {
		t.Fatalf("%s breaks the resume rules:\n%s", dir, strings.Join(rd.Violations, "\n"))
	}
	return rd
}

// chaosSnapshotEvery are the cadences every seed runs at: one snapshot per
// eight records, and none, so that ReadRunDir's rules see every record a run
// journals rather than the few teardown leaves past its owed snapshot.
var chaosSnapshotEvery = []int{8, 1 << 20}

func chaosConfig(dir string) AppConfig {
	return AppConfig{
		Resource:   Resource{Name: "supermic", Cores: 16, Walltime: time.Hour},
		TimeScale:  50 * time.Microsecond,
		HostName:   "null",
		JournalDir: dir,
		Tuning:     Tuning{SnapshotEvery: 8},
	}
}

// runIncarnation starts (or resumes) one incarnation and kills it after
// killAfter task events; killAfter <= 0 lets it run to completion. It
// returns whether the run completed.
func runIncarnation(t *testing.T, dir string, snapshotEvery, killAfter int) bool {
	t.Helper()
	cfg := chaosConfig(dir)
	cfg.Tuning.SnapshotEvery = snapshotEvery
	am, err := NewAppManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(chaosApp()...); err != nil {
		t.Fatal(err)
	}
	var sub *EventSub
	if killAfter > 0 {
		sub = am.Subscribe(EventFilter{Kinds: []EventKind{EventTask}})
		defer sub.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := am.Resume(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sub != nil {
		go func() {
			seen := 0
			for range sub.C() {
				seen++
				if seen >= killAfter {
					run.Cancel("chaos kill")
					return
				}
			}
		}()
	}
	err = run.Wait()
	if err == nil {
		return true
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("incarnation failed with %v, want completion or chaos kill", err)
	}
	return false
}

func chaosScenario(t *testing.T, seed int64, snapshotEvery int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()

	const maxIncarnations = 12
	var before core.RunDir // what the directory said before this incarnation
	completed := false
	for inc := 0; inc < maxIncarnations && !completed; inc++ {
		// Kill somewhere in the remaining work's event stream; the final
		// allowed incarnation runs uninterrupted so the scenario terminates.
		killAfter := 1 + rng.Intn(3*chaosTasks)
		if inc == maxIncarnations-1 {
			killAfter = 0
		}
		completed = runIncarnation(t, dir, snapshotEvery, killAfter)

		after := readRunDir(t, dir)
		for uid, state := range before.Tasks {
			if state == TaskDone && after.Pushes[uid] != before.Pushes[uid] {
				t.Fatalf("seed %d incarnation %d: task %s was DONE before the kill but was re-pushed (%d pushes, then %d)",
					seed, inc, uid, before.Pushes[uid], after.Pushes[uid])
			}
		}
		before = after
	}
	if !completed {
		t.Fatalf("seed %d: no incarnation completed within %d attempts", seed, maxIncarnations)
	}

	// Conservation: the directory alone reconstructs all tasks DONE.
	done := 0
	for _, state := range before.Tasks {
		if state == TaskDone {
			done++
		}
	}
	if done != chaosTasks || before.Active() != 0 {
		t.Fatalf("seed %d: the directory reads %d tasks DONE and %d in flight, want %d and none",
			seed, done, before.Active(), chaosTasks)
	}
}

// TestChaosResume is the crash-recovery acceptance harness (fixed seeds;
// -short trims the sweep). Each seed kills a durable run at randomized
// points across incarnations, at each snapshot cadence, and proves
// conservation and exactly-once semantics on every resume.
func TestChaosResume(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			for _, every := range chaosSnapshotEvery {
				t.Run(fmt.Sprintf("snapshot-every-%d", every), func(t *testing.T) {
					chaosScenario(t, seed, every)
				})
			}
		})
	}
}

// TestDurabilityProgressSurface pins the public Progress.Durability surface
// through the entk façade.
func TestDurabilityProgressSurface(t *testing.T) {
	dir := t.TempDir()
	am, err := NewAppManager(chaosConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(chaosApp()...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	d := am.Snapshot().Durability
	if d == nil {
		t.Fatal("Durability nil for a durable run")
	}
	if d.Snapshots == 0 || d.JournalSeq == 0 {
		t.Fatalf("durability counters did not advance: %+v", d)
	}

	// Non-durable runs must not grow the surface.
	am2, err := NewAppManager(AppConfig{
		Resource:  Resource{Name: "supermic", Cores: 8, Walltime: time.Hour},
		TimeScale: 50 * time.Microsecond,
		HostName:  "null",
	})
	if err != nil {
		t.Fatal(err)
	}
	if am2.Snapshot().Durability != nil {
		t.Fatal("Durability non-nil for a non-durable run")
	}
	am2.teardown()
}

// TestPackageLevelResume pins the entk.Resume convenience: build, register,
// resume in one call.
func TestPackageLevelResume(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := Resume(ctx, chaosConfig(dir), chaosApp()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ctx, AppConfig{Resource: Resource{Name: "supermic", Cores: 8, Walltime: time.Hour}}); err == nil {
		t.Fatal("Resume without JournalDir accepted")
	}
}

// TestResumeNumbersPastSnapshotWatermark pins the journal sequence floor. A
// directory can hold a snapshot at watermark W and no record near W — every
// segment below W compacted, the active one empty after a crash right after
// a roll. A journal that numbered on from its last surviving record
// would write this incarnation's transitions at or below W, and the next
// recovery would skip them as already in the snapshot: DONE tasks would run
// twice.
func TestResumeNumbersPastSnapshotWatermark(t *testing.T) {
	const watermark = 500
	dir := t.TempDir()
	inSnapshot := map[string]bool{}
	var entries []msgcodec.SnapEntry
	for _, s := range chaosApp()[0].Stages()[:1] {
		for _, task := range s.Tasks() {
			inSnapshot[task.UID] = true
			entries = append(entries, msgcodec.SnapEntry{Entity: "task", UID: task.UID, State: string(TaskDone)})
		}
	}
	snap := msgcodec.Snapshot{Watermark: watermark, Entries: entries}
	if _, err := statedb.WriteSnapshot(dir, snap, msgcodec.FormatBinary); err != nil {
		t.Fatal(err)
	}

	incarnation := func() RecoveryInfo {
		t.Helper()
		am, err := NewAppManager(chaosConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := am.AddPipelines(chaosApp()...); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		run, err := am.Resume(ctx, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Wait(); err != nil {
			t.Fatal(err)
		}
		return am.Core().RecoveryInfo()
	}

	if info := incarnation(); info.SnapshotSeq != watermark || info.TasksRecovered != len(inSnapshot) {
		t.Fatalf("first resume: %+v, want the snapshot at %d and its %d DONE tasks", info, watermark, len(inSnapshot))
	}
	if err := journal.ReplayDir(dir, func(r journal.Record) error {
		if r.Seq <= watermark {
			return fmt.Errorf("the directory holds seq %d, inside the snapshot's watermark %d", r.Seq, watermark)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	first := readRunDir(t, dir)
	for uid := range first.Tasks {
		want := 1
		if inSnapshot[uid] {
			want = 0 // DONE in the snapshot
		}
		if first.Pushes[uid] != want {
			t.Fatalf("first resume pushed task %s %d times, want %d", uid, first.Pushes[uid], want)
		}
	}

	if info := incarnation(); info.TasksRecovered != chaosTasks {
		t.Fatalf("second resume recovered %d DONE tasks, want all %d: %+v", info.TasksRecovered, chaosTasks, info)
	}
	if again := readRunDir(t, dir); !maps.Equal(again.Pushes, first.Pushes) {
		t.Fatalf("second resume pushed tasks that were already DONE: %v, then %v", first.Pushes, again.Pushes)
	}
}
