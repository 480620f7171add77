package journal_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/entk"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// resumeApp is one pipeline of two stages with structural UIDs, so a second
// manager's Resume matches every entity of the first.
func resumeApp(tasks int) *entk.Pipeline {
	p := entk.NewPipeline("resume")
	p.UID = "pipeline.000"
	for si := 0; si < 2; si++ {
		s := entk.NewStage(fmt.Sprintf("s%d", si))
		s.UID = fmt.Sprintf("stage.000.%03d", si)
		for ti := 0; ti < tasks; ti++ {
			t := entk.NewTask(fmt.Sprintf("t%03d", ti))
			t.UID = fmt.Sprintf("task.000.%03d.%05d", si, ti)
			t.Executable = "sleep"
			s.AddTask(t) //nolint:errcheck
		}
		p.AddStage(s) //nolint:errcheck
	}
	return p
}

// sizeRotated is a directory written by the build that rotated segments by
// size rather than at snapshots: a resumeApp(64) run with SnapshotEvery 64
// and 1 KiB segments, cut at its stage boundary. Its segments end wherever
// the size limit fell, so the oldest surviving one holds records the newest
// snapshot already covers.
const sizeRotated = "testdata/size-rotated"

// resumeManager is a manager of resumeApp(tasks) over dir, on 64 cores.
func resumeManager(t *testing.T, dir string, tasks, snapshotEvery int) (*entk.AppManager, *entk.Pipeline) {
	t.Helper()
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource:   entk.Resource{Name: "supermic", Cores: 64, Walltime: time.Hour},
		TimeScale:  50 * time.Microsecond,
		HostName:   "null",
		JournalDir: dir,
		Tuning:     entk.Tuning{SnapshotEvery: snapshotEvery},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := resumeApp(tasks)
	if err := am.AddPipelines(p); err != nil {
		t.Fatal(err)
	}
	return am, p
}

// TestResumeOpensEachSegmentOnce drives a real Resume of sizeRotated — several
// segments, the first of them straddling the snapshot's watermark — and
// counts what recovery does to the files: every journal segment and the RTS
// audit log are opened for reading exactly once. The resumed run restores
// exactly the first stage and runs the second to completion: a directory
// from before segments rolled at snapshots still resumes.
func TestResumeOpensEachSegmentOnce(t *testing.T) {
	const tasks = 64
	dir := filepath.Join(t.TempDir(), "journal")
	if err := os.CopyFS(dir, os.DirFS(sizeRotated)); err != nil {
		t.Fatal(err)
	}
	segs, err := journal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("%s holds %d segments, want several", sizeRotated, len(segs))
	}

	var mu sync.Mutex
	opens := map[string]int{}
	restore := journal.SetScanWrap(func(path string, r io.Reader) io.Reader {
		mu.Lock()
		opens[path]++
		mu.Unlock()
		return r
	})
	defer restore()
	am, _ := resumeManager(t, dir, tasks, 64)
	run, err := am.Resume(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	restore()
	if err := run.Wait(); err != nil {
		t.Fatalf("resumed run ended with %v", err)
	}
	info := am.Core().RecoveryInfo()
	first, err := journal.FirstSeq(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if info.TasksRecovered != tasks || info.SnapshotSeq < first || info.SnapshotSeq >= segs[0].LastSeq {
		t.Fatalf("recovery %+v, want %d tasks from a snapshot inside segment %+v", info, tasks, segs[0])
	}
	if done := am.Core().TaskCounts().Done; done != 2*tasks {
		t.Fatalf("the resumed run ended with %d tasks DONE, want %d", done, 2*tasks)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{filepath.Join(dir, core.AuditLogName)}
	for _, s := range segs {
		want = append(want, s.Path)
	}
	for _, path := range want {
		if opens[path] != 1 {
			t.Errorf("%s opened %d times during Resume, want once", filepath.Base(path), opens[path])
		}
	}
	if len(opens) != len(want) {
		t.Errorf("Resume scanned %d files, want %d: %v", len(opens), len(want), opens)
	}
}

// TestResumeReadsOnlyTheTail pins what rolling the journal at every snapshot
// buys a restart: a durable run cut after its snapshots leaves one segment,
// starting right after the newest snapshot's watermark, and Resume reads no
// record that snapshot covers.
func TestResumeReadsOnlyTheTail(t *testing.T) {
	const tasks = 64
	dir := t.TempDir()
	am, p := resumeManager(t, dir, tasks, 64)
	const cut = "test: cut at the stage boundary"
	started := make(chan *entk.Run, 1)
	p.Stages()[0].PostExec = func() error {
		(<-started).Cancel(cut)
		return nil
	}
	run, err := am.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	started <- run
	var ce *entk.CancelError
	if err := run.Wait(); !errors.As(err, &ce) || ce.Reason != cut {
		t.Fatalf("cut run ended with %v", err)
	}
	snap, ok, err := statedb.LoadLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("the cut run left no snapshot (ok=%v, err=%v)", ok, err)
	}
	segs, err := journal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments %+v after a snapshot at %d, want one", segs, snap.Watermark)
	}
	if first, err := journal.FirstSeq(segs[0].Path); err != nil || first != snap.Watermark+1 {
		t.Fatalf("segments %+v after a snapshot at %d, want one starting at %d", segs, snap.Watermark, snap.Watermark+1)
	}

	var mu sync.Mutex
	read := map[string]*bytes.Buffer{}
	restore := journal.SetScanWrap(func(path string, r io.Reader) io.Reader {
		if filepath.Ext(path) != ".seg" {
			return r // the RTS audit log
		}
		buf := new(bytes.Buffer)
		mu.Lock()
		read[path] = buf
		mu.Unlock()
		return io.TeeReader(r, buf)
	})
	defer restore()
	am, _ = resumeManager(t, dir, tasks, 64)
	run, err = am.Resume(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	restore()
	run.Cancel("test: recovery observed")
	if err := run.Wait(); !errors.As(err, &ce) {
		t.Fatalf("resumed run ended with %v", err)
	}
	if info := am.Core().RecoveryInfo(); info.SnapshotSeq != snap.Watermark || info.TasksRecovered != tasks {
		t.Fatalf("recovery %+v, want %d tasks from the snapshot at %d", info, tasks, snap.Watermark)
	}

	mu.Lock()
	defer mu.Unlock()
	scanned := 0
	for path, buf := range read {
		copied := filepath.Join(t.TempDir(), filepath.Base(path))
		if err := os.WriteFile(copied, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		err := journal.Replay(copied, func(rec journal.Record) error {
			if scanned++; rec.Seq <= snap.Watermark {
				return fmt.Errorf("%s: Resume read record %d, at or below the watermark %d", filepath.Base(path), rec.Seq, snap.Watermark)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if scanned == 0 {
		t.Fatal("Resume read no journal record")
	}
	t.Logf("Resume read %d records past a snapshot at %d", scanned, snap.Watermark)
}

// TestDurableRunWritesOncePerRequest is the commit-cost shape test, the
// write-side twin of TestResumeOpensEachSegmentOnce: it drives a real
// durable run of 2 stages x 64 tasks and looks at every write the state
// journal's segments receive. Each write carries whole records numbered
// consecutively, and all of one request's shape — one entity kind, one
// target state — because the synchronizer journals a bulk request with one
// call; a stage's 64-task transitions arrive as single writes; and the run
// costs far fewer writes than it has records (it used to cost one each).
func TestDurableRunWritesOncePerRequest(t *testing.T) {
	const tasks = 64
	dir := t.TempDir()
	var mu sync.Mutex
	var writes [][]byte
	restore := journal.SetWriteWrap(func(path string, w io.Writer) io.Writer {
		if filepath.Ext(path) != ".seg" {
			return w // the RTS audit log
		}
		return writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			writes = append(writes, append([]byte(nil), p...))
			mu.Unlock()
			return w.Write(p)
		})
	})
	defer restore()

	am, err := entk.NewAppManager(entk.AppConfig{
		Resource:   entk.Resource{Name: "supermic", Cores: 64, Walltime: time.Hour},
		TimeScale:  50 * time.Microsecond,
		HostName:   "null",
		JournalDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(resumeApp(tasks)); err != nil {
		t.Fatal(err)
	}
	if err := am.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	records, largest := 0, 0
	var next uint64 = 1
	for i, w := range writes {
		// A write is a small journal file of its own.
		path := filepath.Join(t.TempDir(), "write.journal")
		if err := os.WriteFile(path, w, 0o644); err != nil {
			t.Fatal(err)
		}
		n, held := 0, 0
		var shape string
		err := journal.Replay(path, func(rec journal.Record) error {
			if rec.Seq != next {
				t.Fatalf("write %d: record seq %d, want %d", i, rec.Seq, next)
			}
			next++
			n++
			held += 8 + msgcodec.JournalRecSize(rec.Seq, rec.Type, rec.Data)
			if rec.Type != "state" {
				shape = rec.Type
				return nil
			}
			sr, err := msgcodec.DecodeStateRec(rec.Data)
			if err != nil {
				return err
			}
			if s := sr.Entity + " -> " + sr.State; shape == "" {
				shape = s
			} else if s != shape {
				t.Fatalf("write %d mixes requests: %s after %s", i, s, shape)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || held != len(w) {
			t.Fatalf("write %d: %d whole records in %d of its %d bytes", i, n, held, len(w))
		}
		records += n
		largest = max(largest, n)
	}
	if largest != tasks {
		t.Fatalf("the largest write holds %d records, want a stage's %d-task transition in one", largest, tasks)
	}
	if records < 6*2*tasks || len(writes)*3 > records {
		t.Fatalf("%d writes for %d records; want at least %d records and under a third as many writes",
			len(writes), records, 6*2*tasks)
	}
	t.Logf("%d records in %d writes", records, len(writes))
}

// TestRejectedFrameLeavesNothingBehind is the fault cell on the committer's
// reused scratch: one journal write of a quiet durable run fails — a short
// write, then no space — under a bulk request (the eight-task cancellation of
// a stage), so the frame is rejected with its eight encoded records still in
// the synchronizer's buffer. The frames accepted next journal exactly their own
// records: the directory replays to the event stream, transition for
// transition, and holds none of the rejected request's. (The failed write
// passes nothing on to the file: what a torn write leaves there is the
// journal's concern, not the scratch's.)
func TestRejectedFrameLeavesNothingBehind(t *testing.T) {
	const tasks = 8
	dir := t.TempDir()
	var fail atomic.Bool
	var rejected []byte
	restore := journal.SetWriteWrap(func(path string, w io.Writer) io.Writer {
		if filepath.Ext(path) != ".seg" {
			return w // the RTS audit log
		}
		return writerFunc(func(p []byte) (int, error) {
			if fail.CompareAndSwap(true, false) {
				rejected = append([]byte(nil), p...)
				return len(p) / 2, syscall.ENOSPC
			}
			return w.Write(p)
		})
	})
	defer restore()

	am, err := entk.NewAppManager(entk.AppConfig{
		Resource:   entk.Resource{Name: "supermic", Cores: 64, Walltime: time.Hour},
		TimeScale:  50 * time.Microsecond,
		HostName:   "null",
		JournalDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := resumeApp(tasks)
	if err := am.AddPipelines(p); err != nil {
		t.Fatal(err)
	}
	// Stage 0 is DONE and committed when its PostExec runs, and nothing else
	// moves until it returns: the run is quiet, and the next write is ours.
	quiet, release := make(chan struct{}), make(chan struct{})
	p.Stages()[0].PostExec = func() error {
		close(quiet)
		<-release
		return nil
	}
	events := am.Subscribe(entk.EventFilter{})
	run, err := am.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-quiet
	fail.Store(true)
	if err := run.CancelPipeline(p.UID); err == nil || fail.Load() {
		t.Fatalf("CancelPipeline over a failing journal returned %v (write failed: %v)", err, !fail.Load())
	}
	// The second call has the stage and the pipeline left to cancel; once both
	// are committed it waits for the completion PostExec is holding up.
	again := make(chan error, 1)
	go func() { again <- run.CancelPipeline(p.UID) }()
	type transition struct{ entity, uid, state string }
	var streamed []transition
	for ev := range events.C() {
		streamed = append(streamed, transition{string(ev.Kind), ev.UID, ev.To})
		if ev.UID == p.UID && ev.To == "CANCELED" {
			close(release)
		}
	}
	if err := <-again; err != nil {
		t.Fatalf("CancelPipeline after the failure: %v", err)
	}
	run.Wait() //nolint:errcheck // how a run with its only pipeline canceled ends is not this test's

	states := func(path string, replay func(string, func(journal.Record) error) error) (out []transition) {
		t.Helper()
		err := replay(path, func(rec journal.Record) error {
			if rec.Type != "state" {
				return nil
			}
			sr, err := msgcodec.DecodeStateRec(rec.Data)
			out = append(out, transition{sr.Entity, sr.UID, sr.State})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	lost := filepath.Join(t.TempDir(), "rejected.journal")
	if err := os.WriteFile(lost, rejected, 0o644); err != nil {
		t.Fatal(err)
	}
	canceled := states(lost, journal.Replay)
	if len(canceled) != tasks {
		t.Fatalf("the rejected write held %d records, want stage 1's %d-task cancellation", len(canceled), tasks)
	}
	journaled := states(dir, journal.ReplayDir)
	if !slices.Equal(journaled, streamed) {
		t.Fatalf("the directory replays %d transitions, the event stream carried %d:\n%v\n%v",
			len(journaled), len(streamed), journaled, streamed)
	}
	for _, tr := range journaled {
		if slices.Contains(canceled, tr) {
			t.Fatalf("%v, a record of the rejected request, is in the journal", tr)
		}
	}
	want := []transition{{"stage", p.Stages()[1].UID, "CANCELED"}, {"pipeline", p.UID, "CANCELED"}}
	if n := len(journaled); n < 2 || !slices.Equal(journaled[n-2:], want) {
		t.Fatalf("the journal ends with %v, want the two accepted cancellations %v", journaled[max(0, n-2):], want)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFailedRollTakesNoSnapshot is the fault cell on the roll a snapshot
// starts with: the disk refuses the header of the first rolled segment. No
// snapshot is taken, the failure is counted, and the journal refuses the
// run's next commit, so the run ends with the journal's error. What the
// directory holds is still a journal: a Resume of a copy restores exactly the
// tasks it records DONE and runs the rest.
func TestFailedRollTakesNoSnapshot(t *testing.T) {
	const tasks = 64
	dir := t.TempDir()
	rolled := journal.SegmentName(2)
	restore := journal.SetWriteWrap(func(path string, w io.Writer) io.Writer {
		if filepath.Base(path) != rolled {
			return w
		}
		return writerFunc(func([]byte) (int, error) { return 0, syscall.EIO })
	})
	defer restore()
	// The first roll comes once stage 0 has finished some of its tasks: its
	// scheduling and submission commit 4·tasks+3 records, and a completion
	// drain commits its EXECUTED request before its DONE one. A cadence one
	// record past 4·tasks+3 and a whole stage's EXECUTED rolls after the
	// first DONE request and no later than stage 0's last; at 5·tasks a
	// first drain of 61 or more tasks rolled before any DONE was journaled.
	am, _ := resumeManager(t, dir, tasks, 5*tasks+4)
	err := am.Run(context.Background())
	restore()
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("the run ended with %v, want the journal's EIO", err)
	}
	if d := am.Core().Snapshot().Durability; d.SnapshotFailures != 1 || d.Snapshots != 0 {
		t.Fatalf("durability %+v, want one failed snapshot and none written", d)
	}
	if snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*")); err != nil || len(snaps) != 0 {
		t.Fatalf("snapshot files %v (%v) after a failed roll, want none", snaps, err)
	}
	rd, err := core.ReadRunDir(dir)
	if err != nil || len(rd.Violations) > 0 {
		t.Fatalf("reading the directory: %v %v", err, rd.Violations)
	}
	done := 0
	for _, state := range rd.Tasks {
		if state == core.TaskDone {
			done++
		}
	}
	if done == 0 || done >= 2*tasks {
		t.Fatalf("the directory records %d tasks DONE, want some of %d", done, 2*tasks)
	}
	t.Logf("the failed roll left %d tasks DONE", done)

	copied := filepath.Join(t.TempDir(), "journal")
	if err := os.CopyFS(copied, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	am, _ = resumeManager(t, copied, tasks, 5*tasks)
	run, err := am.Resume(context.Background(), copied)
	if err != nil {
		t.Fatal(err)
	}
	if got := am.Core().RecoveryInfo().TasksRecovered; got != done {
		t.Fatalf("Resume restored %d tasks, the directory records %d DONE", got, done)
	}
	if err := run.Wait(); err != nil {
		t.Fatalf("resumed run ended with %v", err)
	}
	if n := am.Core().TaskCounts().Done; n != 2*tasks {
		t.Fatalf("the resumed run ended with %d tasks DONE, want %d", n, 2*tasks)
	}
}
