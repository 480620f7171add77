package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// auditLogName is the RTS submission audit log's name inside a journal
// directory (entk/entk.go writes the same).
const auditLogName = "rts-audit.log"

// tally counts what a pass attempted and what went wrong: tasks (runs, for
// daemon-open) that did not finish DONE, plus every failed correctness
// check. why keeps the first few violations for the report.
type tally struct {
	attempted int
	failed    int
	why       []string
}

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.why) < 8 {
		t.why = append(t.why, fmt.Sprintf(format, args...))
	}
}

// brokerWatch reads a run's broker at the moment it should be quiet: inside
// the last PostExec, when every task is DONE. The check cannot wait for the
// run to end, because teardown cancels the consumers, and a cancelled
// consumer requeues whatever it had not acknowledged yet: an Emgr still one
// instruction short of acking its last pending batch would then read as a
// stranded message.
type brokerWatch struct {
	queues  map[string]broker.QueueStats
	residue string // "" when every queue drained
}

// quiesceWait bounds how long the watch lets in-flight acknowledgements land.
const quiesceWait = 100 * time.Millisecond

// watchBroker arms a's last PostExec to record am's per-queue stats once
// every queue has depth 0 and nothing unacknowledged, or the residue if
// that does not happen within quiesceWait.
func watchBroker(a *app, am *core.AppManager) *brokerWatch {
	w := &brokerWatch{}
	a.atLast = func() {
		brk := am.Broker()
		deadline := time.Now().Add(quiesceWait)
		for {
			w.queues = map[string]broker.QueueStats{}
			w.residue = ""
			for _, q := range brk.Queues() {
				s, err := brk.Stats(q)
				if err != nil {
					continue
				}
				w.queues[q] = s
				if s.Depth != 0 || s.Unacked != 0 {
					w.residue = fmt.Sprintf("queue %s left depth %d, unacked %d", q, s.Depth, s.Unacked)
				}
			}
			if w.residue == "" || time.Now().After(deadline) {
				return
			}
			runtime.Gosched()
		}
	}
	return w
}

// checkRun judges one finished run: every task DONE in exactly wantAttempts
// attempts, none FAILED or CANCELED, and the broker drained.
func (t *tally) checkRun(label string, p core.Progress, wantTasks, wantAttempts int, brk *brokerWatch) {
	t.attempted += wantTasks
	if p.TasksTotal != wantTasks {
		t.fail(1, "%s: %d tasks registered, want %d", label, p.TasksTotal, wantTasks)
	}
	if p.TasksDone != wantTasks {
		t.fail(wantTasks-p.TasksDone, "%s: %d/%d tasks DONE (%d failed, %d canceled)",
			label, p.TasksDone, wantTasks, p.TasksFailed, p.TasksCanceled)
	}
	if p.TaskAttempts != wantAttempts {
		t.fail(1, "%s: %d task attempts, want %d", label, p.TaskAttempts, wantAttempts)
	}
	if brk.queues == nil {
		t.fail(1, "%s: the last PostExec never ran", label)
	} else if brk.residue != "" {
		t.fail(1, "%s: %s", label, brk.residue)
	}
}

// reconstructDone rebuilds the DONE-task set from a journal directory alone,
// the way Resume does: newest snapshot, then the journal records above its
// watermark.
func reconstructDone(dir string) (map[string]bool, error) {
	final := map[string]string{}
	snap, haveSnap, err := statedb.LoadLatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if haveSnap {
		for _, e := range snap.Entries {
			if e.Entity == "task" {
				final[e.UID] = e.State
			}
		}
	}
	err = journal.ReplayDir(dir, func(rec journal.Record) error {
		if rec.Type != "state" || (haveSnap && rec.Seq <= snap.Watermark) {
			return nil
		}
		sr, derr := msgcodec.DecodeStateRec(rec.Data)
		if derr != nil {
			return derr
		}
		if sr.Entity == "task" {
			final[sr.UID] = sr.State
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	done := make(map[string]bool, len(final))
	for uid, state := range final {
		if core.TaskState(state) == core.TaskDone {
			done[uid] = true
		}
	}
	return done, nil
}

// auditPushes replays the RTS audit log in dir and returns the task UIDs
// pushed by records with seq > afterSeq, plus the log's final seq.
func auditPushes(dir string, afterSeq uint64) (uids []string, last uint64, err error) {
	err = journal.Replay(filepath.Join(dir, auditLogName), func(rec journal.Record) error {
		last = rec.Seq
		if rec.Type != "rts.store" || rec.Seq <= afterSeq {
			return nil
		}
		sr, derr := msgcodec.DecodeStoreRec(rec.Data)
		if derr != nil {
			return derr
		}
		if sr.Op == "push" {
			uids = append(uids, sr.UIDs...)
		}
		return nil
	})
	return uids, last, err
}

// checkJournal asserts conservation from the directory alone: the
// journal-reconstructed DONE set equals the application's task set.
func (t *tally) checkJournal(label, dir string, uids []string) {
	done, err := reconstructDone(dir)
	if err != nil {
		t.fail(1, "%s: journal reconstruction: %v", label, err)
		return
	}
	missing := 0
	for _, uid := range uids {
		if !done[uid] {
			missing++
		}
	}
	if missing > 0 || len(done) != len(uids) {
		t.fail(1, "%s: journal reconstructs %d DONE tasks (%d of the app's %d missing)",
			label, len(done), missing, len(uids))
	}
}
