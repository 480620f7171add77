package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// snapshotFiles reads every snapshot file in dir, by name.
func snapshotFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil {
		t.Error(err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned between the listing and the read
			}
			t.Error(err)
		}
		out[filepath.Base(p)] = raw
	}
	return out
}

// segmentHistory keeps every journal segment a durable run wrote, though
// compaction removes each one a snapshot covers: collect, called from the
// snapshot hook — which runs before the write, so before the compaction — and
// once more after the run, reads every segment file in the directory, and the
// last read of each is what the segment ended with.
type segmentHistory struct {
	mu    sync.Mutex
	files map[string][]byte
}

func (h *segmentHistory) collect(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if err != nil {
		t.Error(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.files == nil {
		h.files = map[string][]byte{}
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Error(err)
			continue
		}
		h.files[filepath.Base(p)] = raw
	}
}

// dir writes the collected segments into a fresh directory: the journal as it
// would stand had nothing been compacted.
func (h *segmentHistory) dir(t *testing.T) string {
	t.Helper()
	out := t.TempDir()
	h.mu.Lock()
	defer h.mu.Unlock()
	for name, raw := range h.files {
		if err := os.WriteFile(filepath.Join(out, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSnapshotImageIsExact pins the image-on-synchronizer / write-in-
// background split: the writer encodes each image while the synchronizer
// keeps committing (the hook holds the writer until the journal has moved
// past the image's watermark and the roll's segment header), and still every
// snapshot file at watermark W is byte for byte the snapshot of a replay of
// records 1..W. Under -race an image that aliased the mirror would also be a
// reported race.
func TestSnapshotImageIsExact(t *testing.T) {
	dir := t.TempDir()
	am, rts := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4})
	pipes := buildApp(2, 24, 4, 20*time.Second)
	stampUIDs(pipes)
	am.AddPipelines(pipes...)

	// The whole run takes about as long as one snapshot's fsync and rename,
	// so left alone it sometimes ends with the first image still being
	// written and nothing to compare it with. Past its first third, no task
	// completes before that image is on disk: the remaining two thirds then
	// commit against an idle writer and ask for the next one. (The first
	// image is requested at the run's fourth record, long before any task
	// waits here, and its hook is released by the commits of the first third.)
	var attempts atomic.Int64
	rts.exitFor = func(TaskDescription) int {
		if attempts.Add(1) > 64 {
			deadline := time.Now().Add(5 * time.Second)
			for atomic.LoadInt64(&am.snapshotsWritten) == 0 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
		}
		return 0
	}

	// Only two generations survive pruning, so each hook call collects the
	// files its predecessors left, before this write can prune them — and the
	// journal's segments, before this snapshot's compaction removes them.
	var mu sync.Mutex
	files := map[string][]byte{}
	var segs segmentHistory
	collect := func() {
		found := snapshotFiles(t, dir)
		mu.Lock()
		defer mu.Unlock()
		for name, raw := range found {
			files[name] = raw
		}
	}
	am.snapHook = func(wm uint64) {
		collect()
		segs.collect(t, dir)
		deadline := time.Now().Add(5 * time.Second)
		for am.jrn.Seq() <= wm+1 && time.Now().Before(deadline) {
			select {
			case <-am.doneCh:
				return // the image was of the run's last commit
			default:
				runtime.Gosched()
			}
		}
	}
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	collect()
	segs.collect(t, dir)
	d := am.Snapshot().Durability
	if d.Snapshots < 2 || d.SnapshotFailures != 0 || len(files) != d.Snapshots {
		t.Fatalf("collected %d snapshot files of %d written (%d failed), want several and all of them",
			len(files), d.Snapshots, d.SnapshotFailures)
	}

	full := segs.dir(t)
	for name, got := range files {
		snap, valid, err := statedb.LoadLatestSnapshot(writeOnly(t, name, got))
		if err != nil || !valid {
			t.Fatalf("%s does not load: valid=%v err=%v", name, valid, err)
		}
		if !bytes.Equal(got, imageAt(t, full, snap.Watermark)) {
			t.Fatalf("%s (%d entries) is not the state at record %d", name, len(snap.Entries), snap.Watermark)
		}
	}
}

// imageAt returns the snapshot file of a replay of records 1..watermark of
// the journal in dir (which must still hold record 1: a segmentHistory's),
// written through the one-shot statedb.WriteSnapshot.
func imageAt(t *testing.T, dir string, watermark uint64) []byte {
	t.Helper()
	replayed := statedb.New()
	first := true
	err := journal.ReplayDir(dir, func(rec journal.Record) error {
		if first && rec.Seq != 1 {
			t.Fatalf("the journal starts at record %d", rec.Seq)
		}
		first = false
		if rec.Type != "state" || rec.Seq > watermark {
			return nil
		}
		sr, err := msgcodec.DecodeStateRec(rec.Data)
		if err != nil {
			return err
		}
		return replayed.SaveState(sr.Entity, sr.UID, sr.State)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := msgcodec.Snapshot{Watermark: watermark, Entries: replayed.SnapshotEntries()}
	path, err := statedb.WriteSnapshot(t.TempDir(), want, msgcodec.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// writeOnly puts one file into a fresh directory and returns the directory.
func writeOnly(t *testing.T, name string, raw []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// stalledRun is a durable 4-stage run whose snapshot writer blocks inside
// its first snapshot until release is closed; stalled is closed once the
// writer is held.
type stalledRun struct {
	dir     string
	am      *AppManager
	run     *Run
	stages  *EventSub
	stalled chan struct{}
	release chan struct{}
	mu      sync.Mutex
	marks   []uint64 // watermark of every snapshot the writer started
}

// startStalled starts the 4-stage run and returns once its first snapshot is
// held inside the writer. With holdLast, stage 4 does not start before the
// writer has been released and is idle again, so the commits that must
// trigger the next snapshot exist however fast the first three stages ran.
func startStalled(t *testing.T, holdLast bool) *stalledRun {
	t.Helper()
	s := &stalledRun{dir: t.TempDir(), stalled: make(chan struct{}), release: make(chan struct{})}
	s.am, _ = testApp(t, Config{JournalDir: s.dir, SnapshotEvery: 4})
	pipes := buildApp(1, 4, 4, 20*time.Second)
	stampUIDs(pipes)
	if holdLast {
		pipes[0].Stages()[2].PostExec = func() error {
			<-s.release
			for s.am.snapBusy.Load() {
				time.Sleep(100 * time.Microsecond)
			}
			return nil
		}
	}
	s.am.AddPipelines(pipes...)
	s.am.snapHook = func(wm uint64) {
		s.mu.Lock()
		s.marks = append(s.marks, wm)
		first := len(s.marks) == 1
		s.mu.Unlock()
		if first {
			close(s.stalled)
			<-s.release
		}
	}
	s.stages = s.am.Subscribe(EventFilter{Kinds: []EventKind{EventStage}})
	t.Cleanup(s.stages.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	run, err := s.am.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.run = run
	select {
	case <-s.stalled:
	case <-run.Done():
		t.Fatal("the run ended before its first snapshot")
	}
	return s
}

func (s *stalledRun) started() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.marks...)
}

// stillWaiting fails the test if the run's teardown finished while the
// writer was still held.
func (s *stalledRun) stillWaiting(t *testing.T) {
	t.Helper()
	select {
	case <-s.run.Done():
		t.Fatal("Wait returned while the snapshot writer was still writing")
	case <-time.After(50 * time.Millisecond):
	}
}

// settled fails the test unless the directory is what a drained writer
// leaves: no temporary file, a snapshot that loads, a directory ReadRunDir
// reads with no violation.
func (s *stalledRun) settled(t *testing.T) RunDir {
	t.Helper()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("teardown left %s behind", e.Name())
		}
	}
	if _, ok, err := statedb.LoadLatestSnapshot(s.dir); err != nil || !ok {
		t.Fatalf("no loadable snapshot after teardown: ok=%v err=%v", ok, err)
	}
	return runDir(t, s.dir)
}

// TestStalledSnapshotWriter holds the background writer inside a snapshot
// and pins what the synchronizer and teardown do meanwhile: acks keep
// flowing, no second snapshot starts, the SnapshotEvery trigger is still
// armed when the writer comes back, and Wait — after a normal finish and
// after Cancel — returns only once the writer has drained, having taken the
// snapshot the commits during the stall owed: fewer than SnapshotEvery
// records are left past the newest one.
func TestStalledSnapshotWriter(t *testing.T) {
	t.Run("acks flow and the trigger stays armed", func(t *testing.T) {
		s := startStalled(t, true)
		// Two further stages complete — dozens of acked frames — while the
		// writer is held.
		done := 0
		for ev := range s.stages.C() {
			if ev.To == string(StageDone) {
				if done++; done == 3 {
					break
				}
			}
		}
		if done != 3 {
			t.Fatalf("the run stopped after %d stages with its snapshot writer held", done)
		}
		if marks := s.started(); len(marks) != 1 {
			t.Fatalf("%d snapshots in flight at once (watermarks %v)", len(marks), marks)
		}
		if n := s.am.Snapshot().Durability.Snapshots; n != 0 {
			t.Fatalf("%d snapshots counted while the only one was held", n)
		}
		close(s.release)
		if err := s.run.Wait(); err != nil {
			t.Fatal(err)
		}
		marks := s.started()
		if len(marks) < 2 || !sort.SliceIsSorted(marks, func(i, k int) bool { return marks[i] < marks[k] }) {
			t.Fatalf("snapshot watermarks %v: the stage left after the stall must have snapshotted again", marks)
		}
		if d := s.am.Snapshot().Durability; d.Snapshots != len(marks) || d.SnapshotFailures != 0 {
			t.Fatalf("%d snapshots written, %d failed, %d started", d.Snapshots, d.SnapshotFailures, len(marks))
		}
		s.settled(t)
	})

	t.Run("Wait drains the writer", func(t *testing.T) {
		s := startStalled(t, false)
		<-s.am.doneCh // every transition of the run acked, writer still held
		s.stillWaiting(t)
		close(s.release)
		if err := s.run.Wait(); err != nil {
			t.Fatal(err)
		}
		rd := s.settled(t)
		if done := len(doneIn(rd)); done != 16 {
			t.Fatalf("the directory reconstructs %d DONE tasks, want 16", done)
		}
		if rd.Tail >= 4 {
			t.Fatalf("%d state records past the newest snapshot, want fewer than SnapshotEvery (4)", rd.Tail)
		}
	})

	t.Run("Cancel drains the writer", func(t *testing.T) {
		s := startStalled(t, false)
		s.run.Cancel("test: cancel with a snapshot in flight")
		s.stillWaiting(t)
		close(s.release)
		var ce *CancelError
		if err := s.run.Wait(); !errors.As(err, &ce) {
			t.Fatalf("canceled run ended with %v", err)
		}
		if tail := s.settled(t).Tail; tail >= 4 {
			t.Fatalf("%d state records past the newest snapshot, want fewer than SnapshotEvery (4)", tail)
		}
	})
}

// TestSnapshotBuffersAreSingleFlight pins who owns the snapshot writer's
// reused buffers. The writer is held inside its first snapshot — image
// captured, nothing encoded yet — while three whole stages commit, every
// request of them a trigger that finds the writer busy; were a trigger to
// capture again, the held snapshot would come out as some later state. It must
// come out as the mirror at its own watermark, and so must the next snapshot,
// which goes through the same buffers. Under -race a second capture would also
// be a reported race with the held writer's encode.
func TestSnapshotBuffersAreSingleFlight(t *testing.T) {
	dir := t.TempDir()
	am, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4})
	pipes := buildApp(1, 4, 4, 20*time.Second)
	stampUIDs(pipes)
	held, release := make(chan struct{}), make(chan struct{})
	// Stage 4 starts once the writer has been released and is idle again, so
	// its commits are the ones that start the second snapshot.
	pipes[0].Stages()[2].PostExec = func() error {
		<-release
		for am.snapBusy.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}
	am.AddPipelines(pipes...)
	var mu sync.Mutex
	var marks []uint64
	var first []byte // the held snapshot's file, read before a later write can prune it
	var segs segmentHistory
	am.snapHook = func(wm uint64) {
		segs.collect(t, dir)
		mu.Lock()
		marks = append(marks, wm)
		n := len(marks)
		mu.Unlock()
		switch n {
		case 1:
			close(held)
			<-release
		case 2:
			raw, err := os.ReadFile(filepath.Join(dir, statedb.SnapshotName(marks[0])))
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			first = raw
			mu.Unlock()
		}
	}
	stages := am.Subscribe(EventFilter{Kinds: []EventKind{EventStage}})
	defer stages.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := am.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-run.Done():
		t.Fatal("the run ended before its first snapshot")
	}
	for done := 0; done < 3; {
		ev, ok := <-stages.C()
		if !ok {
			t.Fatalf("the run stopped after %d stages with its snapshot writer held", done)
		}
		if ev.To == string(StageDone) {
			done++
		}
	}
	mu.Lock()
	inFlight := len(marks)
	mu.Unlock()
	if inFlight != 1 {
		t.Fatalf("%d snapshots started while the first was held", inFlight)
	}
	close(release)
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	segs.collect(t, dir)
	full := segs.dir(t)
	mu.Lock()
	defer mu.Unlock()
	if len(marks) < 2 || first == nil {
		t.Fatalf("snapshot watermarks %v: stage 4 must have snapshotted again", marks)
	}
	if !bytes.Equal(first, imageAt(t, full, marks[0])) {
		t.Fatalf("the held snapshot is not the state at its watermark %d", marks[0])
	}
	last := marks[len(marks)-1]
	got, err := os.ReadFile(filepath.Join(dir, statedb.SnapshotName(last)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, imageAt(t, full, last)) {
		t.Fatalf("the snapshot at watermark %d, written through reused buffers, is not the state there", last)
	}
}
