package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// stampUIDs assigns deterministic structural UIDs — what the appjson Build
// path does for documents — so two incarnations of the same description
// name every entity identically, the property cross-process Resume needs.
func stampUIDs(pipes []*Pipeline) {
	for pi, p := range pipes {
		p.UID = fmt.Sprintf("pipeline.%03d", pi)
		for si, s := range p.Stages() {
			s.UID = fmt.Sprintf("stage.%03d.%03d", pi, si)
			for ti, task := range s.Tasks() {
				task.UID = fmt.Sprintf("task.%03d.%03d.%05d", pi, si, ti)
			}
		}
	}
}

// TestDurableRunJournalsSnapshotsAndCompacts pins the tentpole's happy path:
// a durable run writes segments, snapshots at the configured cadence,
// compacts below the watermark, and reports it all through
// Progress.Durability. The journal must afterwards reconstruct every entity
// as DONE.
func TestDurableRunJournalsSnapshotsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	am, _ := testApp(t, Config{
		JournalDir:    dir,
		SnapshotEvery: 8,
	})
	pipes := buildApp(2, 2, 8, 50*time.Second)
	stampUIDs(pipes)
	am.AddPipelines(pipes...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}

	prog := am.Snapshot()
	if prog.Durability == nil {
		t.Fatal("Progress.Durability is nil for a durable run")
	}
	d := prog.Durability
	if d.Snapshots == 0 {
		t.Fatalf("no snapshots written (stats %+v)", d)
	}
	if d.CompactedSegments == 0 {
		t.Fatalf("no segments compacted (stats %+v)", d)
	}
	if d.SnapshotFailures != 0 {
		t.Fatalf("%d snapshot failures", d.SnapshotFailures)
	}
	if d.Resumed {
		t.Fatal("fresh durable run reported Resumed")
	}
	if d.JournalSeq == 0 {
		t.Fatal("JournalSeq not advanced")
	}

	// The directory alone must reconstruct the terminal state: snapshot +
	// tail yields DONE for all 32 tasks.
	if done := len(doneIn(runDir(t, dir))); done != 32 {
		t.Fatalf("reconstructed %d DONE tasks, want 32", done)
	}
}

// runDir reads dir with ReadRunDir, failing the test on an error or on a
// violation.
func runDir(t *testing.T, dir string) RunDir {
	t.Helper()
	rd, err := ReadRunDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Violations) > 0 {
		t.Fatalf("%s breaks the resume rules:\n%s", dir, strings.Join(rd.Violations, "\n"))
	}
	return rd
}

// doneIn returns the UIDs of the tasks rd records DONE.
func doneIn(rd RunDir) map[string]bool {
	done := map[string]bool{}
	for uid, state := range rd.Tasks {
		if state == TaskDone {
			done[uid] = true
		}
	}
	return done
}

// cutAtFirstStage starts am, cancels the run once its first stage commits
// DONE — a crash, as far as the journal is concerned — and returns how the
// run ended.
func cutAtFirstStage(t *testing.T, am *AppManager) error {
	t.Helper()
	sub := am.Subscribe(EventFilter{Kinds: []EventKind{EventStage}})
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := am.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for ev := range sub.C() {
			if ev.To == string(StageDone) {
				run.Cancel("chaos")
				return
			}
		}
	}()
	return run.Wait()
}

// TestResumeDoesNotRerunCompletedTasks is the §II-B4 contract test: a run
// killed mid-flight resumes from its journal directory without re-executing
// the tasks the first incarnation completed.
func TestResumeDoesNotRerunCompletedTasks(t *testing.T) {
	dir := t.TempDir()
	build := func() []*Pipeline {
		pipes := buildApp(1, 3, 4, 50*time.Second)
		stampUIDs(pipes)
		return pipes
	}

	// Incarnation 1: run until the first stage commits DONE, then cancel.
	// Run.Cancel force-states the remaining entities without journaling —
	// from the journal's point of view this is a crash.
	am1, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4})
	pipes1 := build()
	am1.AddPipelines(pipes1...)
	if err := cutAtFirstStage(t, am1); !errors.Is(err, context.Canceled) {
		t.Fatalf("incarnation 1 finished with %v, want cancellation", err)
	}

	// The journal must already record some DONE tasks (stage 1 completed).
	preDone := doneIn(runDir(t, dir))
	if len(preDone) < 4 {
		t.Fatalf("incarnation 1 journaled %d DONE tasks, want >= 4 (one stage)", len(preDone))
	}

	// Incarnation 2: same description, fresh AppManager and RTS, Resume.
	am2, rts2 := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4})
	pipes2 := build()
	am2.AddPipelines(pipes2...)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	run2, err := am2.Resume(ctx2, dir)
	if err != nil {
		t.Fatal(err)
	}
	ri := am2.RecoveryInfo()
	if !ri.Resumed {
		t.Fatal("incarnation 2 did not report Resumed")
	}
	if ri.TasksRecovered != len(preDone) {
		t.Fatalf("recovered %d tasks, journal says %d", ri.TasksRecovered, len(preDone))
	}
	if err := run2.Wait(); err != nil {
		t.Fatal(err)
	}

	// Exactly-once: no task the journal recorded DONE was re-executed.
	for _, uid := range rts2.log() {
		if preDone[uid] {
			t.Fatalf("task %s was DONE before the crash but re-executed on resume", uid)
		}
	}
	// Conservation: every task ends DONE.
	for _, p := range pipes2 {
		if p.State() != PipelineDone {
			t.Fatalf("pipeline state = %s after resume", p.State())
		}
		for _, s := range p.Stages() {
			for _, task := range s.Tasks() {
				if task.State() != TaskDone {
					t.Fatalf("task %s state = %s after resume", task.UID, task.State())
				}
			}
		}
	}
	// The resumed run really did skip work: it executed only the complement.
	if got, want := len(rts2.log()), 12-len(preDone); got != want {
		t.Fatalf("incarnation 2 executed %d tasks, want %d", got, want)
	}
}

// TestResumeKeepsCanceledPipelinesCanceled holds Resume to what
// CancelPipeline committed: a durable run cancels one pipeline on its first
// task event and ends; resuming its directory must leave that pipeline, its
// stages and its tasks CANCELED, run none of its tasks again, and journal
// nothing ReadRunDir flags. With every pipeline canceled the resumed run has
// nothing to wait for and must end at once.
func TestResumeKeepsCanceledPipelinesCanceled(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pipelines int
	}{
		{"one of two", 2},
		{"the only one", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			build := func() []*Pipeline {
				pipes := buildApp(tc.pipelines, 2, 4, 50*time.Second)
				stampUIDs(pipes)
				// The doomed pipeline cannot end before it is canceled.
				for _, s := range pipes[tc.pipelines-1].Stages() {
					for _, task := range s.Tasks() {
						task.Duration = 10 * time.Hour
					}
				}
				return pipes
			}
			doomed := fmt.Sprintf("pipeline.%03d", tc.pipelines-1)

			am1, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4})
			am1.AddPipelines(build()...) //nolint:errcheck
			sub := am1.Subscribe(EventFilter{Kinds: []EventKind{EventTask}})
			defer sub.Close()
			r1 := startApp(t, am1)
			<-sub.C()
			if err := r1.CancelPipeline(doomed); err != nil {
				t.Fatalf("CancelPipeline: %v", err)
			}
			if err := r1.Wait(); err != nil {
				t.Fatalf("incarnation 1 ended with %v", err)
			}
			if st := runDir(t, dir).Pipelines[doomed]; st != PipelineCanceled {
				t.Fatalf("incarnation 1 journaled %s %s, want CANCELED", doomed, st)
			}

			am2, rts2 := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4})
			pipes2 := build()
			am2.AddPipelines(pipes2...) //nolint:errcheck
			if err := resumeApp(t, am2, dir); err != nil {
				t.Fatalf("incarnation 2 ended with %v", err)
			}
			p := pipes2[tc.pipelines-1]
			if p.State() != PipelineCanceled {
				t.Fatalf("resumed %s is %s, want CANCELED", p.UID, p.State())
			}
			for _, s := range p.Stages() {
				if s.State() != StageCanceled {
					t.Fatalf("resumed stage %s is %s, want CANCELED", s.UID, s.State())
				}
				for _, task := range s.Tasks() {
					if st := task.State(); st != TaskDone && st != TaskCanceled {
						t.Fatalf("resumed task %s is %s, want DONE or CANCELED", task.UID, st)
					}
				}
			}
			// Incarnation 1 ended with every pipeline over, so nothing runs.
			if ran := rts2.log(); len(ran) != 0 {
				t.Fatalf("incarnation 2 executed %d tasks (%v), want none", len(ran), ran)
			}
			rd := runDir(t, dir)
			if st := rd.Pipelines[doomed]; st != PipelineCanceled {
				t.Fatalf("the directory reads %s %s after the resume, want CANCELED", doomed, st)
			}
		})
	}
}

// TestResumeFinishesAnInterruptedPipelineCancel resumes a directory whose
// pipeline cancel stopped after its stages' CANCELED and before the
// pipeline's, as a crash between CancelPipeline's commits (or between
// maybeCompleteStage's two) leaves one: the directory is a canceled run's
// journal without the pipeline's CANCELED record. The resumed run must keep
// the stages CANCELED, commit the pipeline CANCELED, run no task and end.
func TestResumeFinishesAnInterruptedPipelineCancel(t *testing.T) {
	build := func() []*Pipeline {
		pipes := buildApp(1, 2, 4, 1000*time.Hour) // in flight until canceled
		stampUIDs(pipes)
		return pipes
	}
	full := t.TempDir()
	am1, _ := testApp(t, Config{JournalDir: full})
	am1.AddPipelines(build()...) //nolint:errcheck
	sub := am1.Subscribe(EventFilter{Kinds: []EventKind{EventTask}})
	defer sub.Close()
	r1 := startApp(t, am1)
	<-sub.C()
	const doomed = "pipeline.000"
	if err := r1.CancelPipeline(doomed); err != nil {
		t.Fatalf("CancelPipeline: %v", err)
	}
	if err := r1.Wait(); err != nil {
		t.Fatalf("incarnation 1 ended with %v", err)
	}

	dir := t.TempDir()
	j, err := journal.OpenDir(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	err = journal.ReplayDir(full, func(rec journal.Record) error {
		if rec.Type != "state" {
			return nil // OpenDir wrote its own segment header
		}
		sr, err := msgcodec.DecodeStateRec(rec.Data)
		if err != nil {
			return err
		}
		if sr.Entity == "pipeline" && sr.State == string(PipelineCanceled) {
			dropped++
			return nil
		}
		_, err = j.AppendRaw("state", rec.Data)
		return err
	})
	if err == nil {
		err = j.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	rd := runDir(t, dir)
	if dropped != 1 || rd.Pipelines[doomed] != PipelineScheduling || rd.Stages["stage.000.000"] != StageCanceled || rd.Stages["stage.000.001"] != StageCanceled {
		t.Fatalf("dropped %d records; the directory reads %s %s and stages %v; want 1, SCHEDULING and both CANCELED",
			dropped, doomed, rd.Pipelines[doomed], rd.Stages)
	}

	am2, rts2 := testApp(t, Config{JournalDir: dir})
	pipes2 := build()
	am2.AddPipelines(pipes2...) //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r2, err := am2.Resume(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Wait(); err != nil {
		t.Fatalf("incarnation 2 ended with %v, want it to finish the cancel and end", err)
	}
	if st := pipes2[0].State(); st != PipelineCanceled {
		t.Fatalf("resumed %s is %s, want CANCELED", doomed, st)
	}
	if ran := rts2.log(); len(ran) != 0 {
		t.Fatalf("incarnation 2 executed %d tasks (%v), want none", len(ran), ran)
	}
	if st := runDir(t, dir).Pipelines[doomed]; st != PipelineCanceled {
		t.Fatalf("the directory reads %s %s after the resume, want CANCELED", doomed, st)
	}
}

// TestWholeRunCancelJournalsNothing holds Run.Cancel to what recovery
// assumes of it: it journals nothing, not even what its forced states set
// off. The cancel is held between the tasks it has forced CANCELED and the
// pipeline it has not reached (the test holds the pipeline's lock), and the
// Dequeue is handed the stage to settle then: it finds every task CANCELED and
// asks for the stage CANCELED, which must be refused — the Dequeue stops on
// the refusal. The directory reads the stage SCHEDULED, the pipeline
// SCHEDULING and the tasks in flight, which a Resume reschedules.
func TestWholeRunCancelJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	am, _ := testApp(t, Config{JournalDir: dir})
	pipes := buildApp(1, 1, 4, 1000*time.Hour) // in flight until the RTS stops
	stampUIDs(pipes)
	am.AddPipelines(pipes...) //nolint:errcheck
	p, stage := pipes[0], pipes[0].Stages()[0]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := am.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil := func(to TaskState) {
		t.Helper()
		notYet := func(task *Task) bool { return task.State() != to }
		for deadline := time.Now().Add(10 * time.Second); slices.ContainsFunc(stage.Tasks(), notYet); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for every task to be %s", to)
			}
		}
	}
	waitUntil(TaskSubmitted)

	p.mu.Lock()
	release := sync.OnceFunc(p.mu.Unlock)
	defer release()
	run.Cancel("test: cancel held at the pipeline")
	waitUntil(TaskCanceled) // the cancel has forced them
	if err := am.settle(stage); err != nil {
		t.Fatal(err)
	}
	select {
	case <-am.doneCh: // the Dequeue's request was refused
	case <-time.After(5 * time.Second): // or, committed, waits for the pipeline
	}
	release()
	if err := run.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("the run ended with %v, want its cancellation", err)
	}
	rd := runDir(t, dir)
	if rd.Stages[stage.UID] != StageScheduled || rd.Pipelines[p.UID] != PipelineScheduling || rd.Active() != 4 {
		t.Fatalf("the directory reads stage %s, pipeline %s and %d tasks in flight; want SCHEDULED, SCHEDULING and 4",
			rd.Stages[stage.UID], rd.Pipelines[p.UID], rd.Active())
	}
}

// TestResumeFreshDirectoryIsDurableStart pins the uniform incarnation loop:
// resuming an empty directory is just a durable first run.
func TestResumeFreshDirectoryIsDurableStart(t *testing.T) {
	dir := t.TempDir()
	am, _ := testApp(t, Config{JournalDir: dir})
	pipes := buildApp(1, 1, 2, 10*time.Second)
	stampUIDs(pipes)
	am.AddPipelines(pipes...)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := am.Resume(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if am.RecoveryInfo().Resumed {
		t.Fatal("fresh directory reported Resumed")
	}
	if am.RecoveryInfo().TasksRecovered != 0 {
		t.Fatal("fresh directory recovered tasks")
	}
}

// TestStartRefusesAUsedJournalDir: Start on a directory that holds a run's
// records — journal records or a snapshot — fails before it touches a byte
// there, instead of resuming it as if it were a new run's; Resume continues
// the same directory.
func TestStartRefusesAUsedJournalDir(t *testing.T) {
	for _, snapshotEvery := range []int{0, 4} {
		t.Run(fmt.Sprintf("snapshot-every-%d", snapshotEvery), func(t *testing.T) {
			dir := t.TempDir()
			incarnation := func() *AppManager {
				am, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: snapshotEvery})
				pipes := buildApp(1, 2, 4, time.Second)
				stampUIDs(pipes)
				am.AddPipelines(pipes...) //nolint:errcheck
				return am
			}
			if err := runApp(t, incarnation()); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			if _, err := incarnation().Start(context.Background()); err == nil {
				t.Fatal("Start on a used journal directory succeeded")
			}
			if after := dirFiles(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Fatal("the refused Start changed the directory")
			}
			am := incarnation()
			if err := resumeApp(t, am, dir); err != nil {
				t.Fatal(err)
			}
			if info := am.RecoveryInfo(); !info.Resumed || info.TasksRecovered != 8 {
				t.Fatalf("Resume recovered %+v, want all 8 tasks", info)
			}
		})
	}
}

func TestResumeRequiresDirectory(t *testing.T) {
	am, _ := testApp(t, Config{})
	if _, err := am.Resume(context.Background(), ""); err == nil {
		t.Fatal("Resume(\"\") succeeded")
	}
}

// TestResumedSnapshotCoversPreCrashState pins the mirror-seeding rule: the
// first snapshot a resumed run writes must include the pre-crash DONE
// states, or compaction could discard the only record of them.
func TestResumedSnapshotCoversPreCrashState(t *testing.T) {
	dir := t.TempDir()
	build := func() []*Pipeline {
		pipes := buildApp(1, 2, 4, 20*time.Second)
		stampUIDs(pipes)
		return pipes
	}
	am1, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 2})
	am1.AddPipelines(build()...)
	cutAtFirstStage(t, am1) //nolint:errcheck

	am2, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 2})
	am2.AddPipelines(build()...)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	run2, err := am2.Resume(ctx2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := run2.Wait(); err != nil {
		t.Fatal(err)
	}
	// With SnapshotEvery=2, incarnation 2 rolled, snapshotted and compacted
	// every other record; reconstruction must still see all
	// 8 tasks DONE — including the ones only incarnation 1 executed.
	if done := len(doneIn(runDir(t, dir))); done != 8 {
		t.Fatalf("reconstructed %d DONE tasks after compacting resume, want 8", done)
	}
}

// TestDurableRunReconstructs runs the durable path with snapshots, and with
// them rolls and compaction, on; recovery must reconstruct every DONE task.
func TestDurableRunReconstructs(t *testing.T) {
	dir := t.TempDir()
	am, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4})
	pipes := buildApp(1, 2, 4, 20*time.Second)
	stampUIDs(pipes)
	am.AddPipelines(pipes...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	if done := len(doneIn(runDir(t, dir))); done != 8 {
		t.Fatalf("reconstructed %d DONE tasks, want 8", done)
	}
}

// TestDirectoriesCrossTheAppendForms is the no-format-change test, both ways
// across the commit that gave the commit path its own buffers. A run cut at
// its first stage boundary leaves a directory written by the engine —
// AppendStateRec into the synchronizer's buffer, one AppendRawBatch per
// request, a Roll per snapshot, the reused SnapshotWriter — and the snapshot
// hook keeps every segment compaction later removes. The same records and
// images are then written the way the engine used to write them, with the
// one-shot forms kept for exactly that (EncodeStateRec and AppendRaw per
// record, WriteSnapshot per image; TestDurableFramesGoldenBytes holds those
// to the old bytes), rolling where the engine's segments begin: every segment
// the two wrote must be file for file identical, and once compacted at the
// newest snapshot so must the two directories, so what either side writes
// the other reads, and a Resume from the rewritten one must restore what the
// first incarnation finished and run only the rest.
func TestDirectoriesCrossTheAppendForms(t *testing.T) {
	dir := t.TempDir()
	build := func() []*Pipeline {
		pipes := buildApp(1, 3, 4, 50*time.Second)
		stampUIDs(pipes)
		return pipes
	}
	am1, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4})
	am1.AddPipelines(build()...)
	var segs segmentHistory
	am1.snapHook = func(uint64) { segs.collect(t, dir) }
	if err := cutAtFirstStage(t, am1); !errors.Is(err, context.Canceled) {
		t.Fatalf("incarnation 1 finished with %v, want cancellation", err)
	}
	segs.collect(t, dir)
	full := segs.dir(t)

	old := t.TempDir()
	j, err := journal.OpenDir(old, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = journal.ReplayDir(full, func(rec journal.Record) error {
		switch {
		case rec.Type == "segment" && rec.Seq == 1:
			return nil // OpenDir wrote its own
		case rec.Type == "segment":
			_, err := j.Roll() // the engine rolled here: the header is the roll's
			return err
		}
		sr, err := msgcodec.DecodeStateRec(rec.Data)
		if err != nil {
			return err
		}
		_, err = j.AppendRaw("state", msgcodec.FormatBinary.EncodeStateRec(sr.Entity, sr.UID, sr.State))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, rewritten := dirFiles(t, full), dirFiles(t, old)
	if len(engine) < 2 || len(engine) != len(rewritten) {
		t.Fatalf("the engine wrote %d segments, the one-shot forms %d; want the same, and several", len(engine), len(rewritten))
	}
	for name, raw := range engine {
		if !bytes.Equal(raw, rewritten[name]) {
			t.Fatalf("%s: the engine wrote %d bytes, the one-shot forms %d, or different ones", name, len(raw), len(rewritten[name]))
		}
	}
	images, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(images) == 0 {
		t.Fatalf("incarnation 1 left snapshots %v (%v), want at least one", images, err)
	}
	var newest uint64
	for _, path := range images { // oldest first: pruning keeps the same two
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, ok, err := statedb.LoadLatestSnapshot(writeOnly(t, filepath.Base(path), raw))
		if err != nil || !ok {
			t.Fatalf("%s does not load: ok=%v err=%v", path, ok, err)
		}
		if _, err := statedb.WriteSnapshot(old, snap, msgcodec.FormatBinary); err != nil {
			t.Fatal(err)
		}
		newest = snap.Watermark
	}
	if _, err := j.Compact(newest); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	engine, rewritten = dirFiles(t, dir), dirFiles(t, old)
	if len(engine) != len(rewritten) {
		t.Fatalf("the engine left %d files, the one-shot forms %d", len(engine), len(rewritten))
	}
	for name, raw := range engine {
		if !bytes.Equal(raw, rewritten[name]) {
			t.Fatalf("%s: the engine left %d bytes, the one-shot forms %d, or different ones", name, len(raw), len(rewritten[name]))
		}
	}

	preDone := doneIn(runDir(t, old))
	am2, rts2 := testApp(t, Config{JournalDir: old, SnapshotEvery: 4})
	pipes2 := build()
	am2.AddPipelines(pipes2...)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run2, err := am2.Resume(ctx, old)
	if err != nil {
		t.Fatal(err)
	}
	if ri := am2.RecoveryInfo(); !ri.Resumed || ri.SnapshotSeq == 0 || len(preDone) < 4 || ri.TasksRecovered != len(preDone) {
		t.Fatalf("recovery %+v, the directory records %d DONE tasks (want a stage's 4 or more, from a snapshot)", ri, len(preDone))
	}
	if err := run2.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, uid := range rts2.log() {
		if preDone[uid] {
			t.Fatalf("task %s was DONE before the cut but re-executed on resume", uid)
		}
	}
	if got, want := len(rts2.log()), 12-len(preDone); got != want || pipes2[0].State() != PipelineDone {
		t.Fatalf("incarnation 2 executed %d tasks (want %d) and left its pipeline %s", got, want, pipes2[0].State())
	}
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}
