package journal_test

import (
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
	"repro/internal/journal"
	"repro/internal/msgcodec"
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

// TestResumeOpensEachSegmentOnce drives a real Resume — a durable run cut at
// its stage boundary, then a fresh manager on the same directory — and
// counts what recovery does to the files: every journal segment and the RTS
// audit log are opened for reading exactly once, and the recovered run still
// restores exactly the first stage.
func TestResumeOpensEachSegmentOnce(t *testing.T) {
	const tasks = 64
	dir := t.TempDir()
	manager := func() (*entk.AppManager, *entk.Pipeline) {
		am, err := entk.NewAppManager(entk.AppConfig{
			Resource:     entk.Resource{Name: "supermic", Cores: 64, Walltime: time.Hour},
			TimeScale:    50 * time.Microsecond,
			HostName:     "null",
			JournalDir:   dir,
			SegmentBytes: 4096,
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
	const cut = "test: cut at the stage boundary"
	am, p := manager()
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
	segs, err := journal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("the cut run left %d segments, want several", len(segs))
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
	am, _ = manager()
	run, err = am.Resume(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	run.Cancel("test: recovery observed")
	if err := run.Wait(); !errors.As(err, &ce) {
		t.Fatalf("resumed run ended with %v", err)
	}
	if got := am.Core().RecoveryInfo().TasksRecovered; got != tasks {
		t.Fatalf("recovered %d tasks, want %d", got, tasks)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{filepath.Join(dir, "rts-audit.log")}
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
