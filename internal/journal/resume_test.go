package journal_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/entk"
	"repro/internal/journal"
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
