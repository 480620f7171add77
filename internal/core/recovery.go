package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// Crash-recoverable runs (paper §II-B4: "applications can be executed on
// multiple attempts, without restarting completed tasks"). In JournalDir
// mode every committed transition is appended to a segmented journal and
// mirrored into an in-process statedb; the synchronizer periodically rolls
// the journal to a new segment, writes the mirror as a snapshot at the roll
// and compacts every segment the snapshot covers. Resume inverts the
// pipeline: load the newest valid snapshot, overlay the journal tail, restore
// DONE tasks, and let the normal scheduling pass recompute stage and pipeline
// progression. The full
// contract — what is journaled vs snapshotted, the watermark invariant, the
// crash matrix — lives in docs/recovery.md.

// RecoveryInfo summarizes what a durable run reconstructed at startup. It
// is populated during setup (before any component spawns) and exposed via
// Progress.Durability.
type RecoveryInfo struct {
	// Resumed reports whether any prior state (snapshot or journal records)
	// was found in the journal directory.
	Resumed bool
	// SnapshotSeq is the watermark of the snapshot recovery loaded (0 when
	// recovery replayed the journal alone).
	SnapshotSeq uint64
	// ReplayedRecords counts the journal-tail state records replayed on top
	// of the snapshot.
	ReplayedRecords int
	// TasksRecovered counts the tasks restored as DONE — work the resumed
	// run will not re-execute.
	TasksRecovered int
}

// DurabilityStats is the Progress view of the durability subsystem: the
// startup RecoveryInfo plus this run's live snapshot/compaction counters.
type DurabilityStats struct {
	RecoveryInfo
	// JournalSeq is the last journaled sequence number.
	JournalSeq uint64
	// Snapshots and SnapshotFailures count this run's snapshot writes.
	Snapshots        int
	SnapshotFailures int
	// CompactedSegments counts journal segments deleted below snapshot
	// watermarks this run.
	CompactedSegments int
}

// Resume is Start for a previously journaled run: it points the engine at
// journalDir (overriding Config.JournalDir), reconstructs the committed
// state from the newest valid snapshot plus the journal tail, and continues
// the run — tasks recorded DONE are not re-executed, tasks caught mid-flight
// are rescheduled from scratch, and stages and pipelines are recomputed from
// task states by the normal scheduling pass. The
// application description must be registered (AddPipelines) with the same
// UIDs as the original run before calling Resume. Resuming an empty or
// fresh directory is equivalent to a durable Start; Start, the other way
// round, refuses a directory that holds records. Like Start, Resume is
// single-shot.
func (am *AppManager) Resume(ctx context.Context, journalDir string) (*Run, error) {
	if journalDir == "" {
		return nil, errors.New("core: Resume requires a journal directory")
	}
	am.mu.Lock()
	if am.running {
		am.mu.Unlock()
		return nil, ErrAlreadyRan
	}
	am.cfg.JournalDir = journalDir
	am.mu.Unlock()
	return am.start(ctx, true)
}

// RecoveryInfo returns what this run reconstructed at startup. Zero value
// for non-durable or not-yet-started runs.
func (am *AppManager) RecoveryInfo() RecoveryInfo { return am.recov }

// openDurable reconstructs committed state from Config.JournalDir and opens
// its segmented journal in one pass: the newest valid snapshot seeds the
// statedb mirror, then a single walk of the segments verifies every record,
// overlays those above the snapshot's watermark onto the mirror (the journal
// does not hand over records at or below it — the snapshot already reflects
// them; segments not yet compacted replay as nothing) and leaves the journal
// open for append, numbering on from the last surviving record or the
// watermark, whichever is higher. Snapshot and records are decoded against
// the registry (registerEntities has run; nothing else is running yet, and
// am.mu is held throughout as resolveLocked asks), so recovering a name the
// application registered allocates nothing. Tasks whose final recorded state
// is DONE, and tasks, stages and pipelines whose final recorded state is
// CANCELED, are restored (restoreLocked); the mirror holds the full
// reconstructed map so the first post-resume snapshot covers pre-crash
// history before compaction can discard it. Unless it resumes, it refuses a directory that holds a
// snapshot or a state record, before it changes anything there.
func (am *AppManager) openDurable(resume bool) error {
	am.mu.Lock()
	defer am.mu.Unlock()
	dir := am.cfg.JournalDir
	resolve := am.resolveLocked // made once: a method value per record would allocate per record
	snap, haveSnap, err := statedb.LoadLatestSnapshotWith(dir, resolve)
	if err != nil {
		return err
	}
	if haveSnap && !resume {
		return usedJournalDir(dir)
	}
	mirror := statedb.New()
	if haveSnap {
		if err := mirror.Restore(snap.Entries); err != nil {
			return err
		}
		am.recov.SnapshotSeq = snap.Watermark
	}
	replayed := 0
	j, err := journal.OpenDirReplay(dir, journal.Options{}, am.recov.SnapshotSeq, func(rec journal.Record) error {
		if rec.Type != "state" {
			return nil
		}
		if !resume {
			return usedJournalDir(dir)
		}
		sr, derr := msgcodec.DecodeStateRecWith(rec.Data, resolve)
		if derr != nil {
			return derr
		}
		replayed++
		return mirror.SaveState(sr.Entity, sr.UID, sr.State)
	})
	if err != nil {
		return err
	}
	am.jrn = j
	am.mirror = mirror
	// The mirror's image, walked once — and the snapshot writer's entries
	// buffer arrives at its working size before the first snapshot needs it.
	for _, e := range am.snapw.Capture(mirror, j.Seq()) {
		am.recov.TasksRecovered += am.restoreLocked(e.Entity, e.UID, e.State)
	}
	am.recov.ReplayedRecords = replayed
	am.recov.Resumed = haveSnap || replayed > 0
	return nil
}

// restoreLocked forces a registered entity that is not yet terminal into the
// state recorded for it when that state ends it for good: DONE for a task,
// CANCELED for a task, stage or pipeline (CancelPipeline asked for it; a
// whole-run Cancel journals none). A FAILED task is retried, and DONE stages
// and pipelines are recomputed from their tasks. It returns how many DONE
// tasks that restored (0 or 1). am.mu must be held.
func (am *AppManager) restoreLocked(entity, uid, state string) int {
	switch entity {
	case "task":
		t, ok := am.tasks[uid]
		if to := TaskState(state); ok && (to == TaskDone || to == TaskCanceled) && !t.State().Terminal() {
			t.forceState(to)
			if to == TaskDone {
				return 1
			}
		}
	case "stage":
		if s, ok := am.stages[uid]; ok && StageState(state) == StageCanceled {
			s.forceState(StageCanceled)
		}
	case "pipeline":
		if p, ok := am.pipes[uid]; ok && PipelineState(state) == PipelineCanceled {
			p.forceState(PipelineCanceled)
		}
	}
	return 0
}

// usedJournalDir is Start's refusal of a directory that holds a run.
func usedJournalDir(dir string) error {
	return fmt.Errorf("core: journal directory %s holds a run's records: Resume continues it, Start needs a fresh one", dir)
}

// maybeSnapshot is the synchronizer's commit hook: it accumulates committed
// state records and, every Config.SnapshotEvery, takes a snapshot
// (takeSnapshot) and hands it to the background writer. Called only from the
// synchronizer loop goroutine — the sole journal writer — after the request's
// append has returned. At most one snapshot is in flight: while the writer is
// busy the trigger stays armed and the next commit tries again, so a slow
// disk costs snapshot cadence, never an ack; the snapshot owed when commits
// stop is teardown's (snapshotOwed). Whoever holds snapBusy owns am.snapw and
// its buffers: this goroutine from the swap to the hand-over, the writer
// after.
func (am *AppManager) maybeSnapshot(committed int) {
	if am.mirror == nil || am.cfg.SnapshotEvery <= 0 {
		return
	}
	am.snapPending += committed
	if am.snapPending < am.cfg.SnapshotEvery || !am.snapBusy.CompareAndSwap(false, true) {
		return
	}
	watermark, ok := am.takeSnapshot()
	if !ok {
		am.snapBusy.Store(false)
		return
	}
	am.snapWG.Add(1)
	go func() {
		defer am.snapWG.Done()
		defer am.snapBusy.Store(false)
		am.writeSnapshot(watermark)
	}()
}

// snapshotOwed takes and writes the snapshot a run's last commits are owed:
// SnapshotEvery or more of them arrived while the writer was busy, and no
// later commit came to start it. Teardown calls it once the synchronizer has
// stopped and the writer is idle, so a run that ends or is canceled leaves
// fewer than SnapshotEvery records past its newest snapshot for Resume to
// replay, not however many committed during its last write.
func (am *AppManager) snapshotOwed() {
	if am.mirror == nil || am.cfg.SnapshotEvery <= 0 || am.snapPending < am.cfg.SnapshotEvery {
		return
	}
	if watermark, ok := am.takeSnapshot(); ok {
		am.writeSnapshot(watermark)
	}
}

// takeSnapshot rolls the journal and takes the mirror's image at the sealed
// segment's last record into am.snapw; the writer's compaction then leaves
// only the new segment. Its caller is the only one committing, so the image
// is exactly the state at the watermark and the watermark never exceeds what
// the file holds. A failed roll takes no snapshot and counts as a failed one;
// the journal then refuses appends, failing the next commit.
func (am *AppManager) takeSnapshot() (uint64, bool) {
	am.snapPending = 0
	watermark, err := am.jrn.Roll()
	if err != nil {
		atomic.AddInt64(&am.snapshotFailures, 1)
		return 0, false
	}
	am.snapw.Capture(am.mirror, watermark)
	return watermark, true
}

// writeSnapshot persists the captured image and compacts at its watermark, on
// the background writer or, for the owed snapshot, on teardown. Failures are counted, not fatal: the journal
// remains authoritative, so a failed snapshot only delays compaction,
// and a segment Compact could not remove stays listed for the next snapshot's.
func (am *AppManager) writeSnapshot(watermark uint64) {
	if am.snapHook != nil {
		am.snapHook(watermark)
	}
	if _, err := am.snapw.Write(am.cfg.JournalDir); err != nil {
		atomic.AddInt64(&am.snapshotFailures, 1)
		return
	}
	atomic.AddInt64(&am.snapshotsWritten, 1)
	// A removal that failed part-way is not a failed snapshot; what Compact
	// did remove counts either way.
	n, _ := am.jrn.Compact(watermark) //nolint:errcheck
	atomic.AddInt64(&am.segmentsCompacted, int64(n))
}

// durabilityStats assembles the Progress.Durability view; nil for
// non-durable runs.
func (am *AppManager) durabilityStats() *DurabilityStats {
	if am.mirror == nil {
		return nil
	}
	d := &DurabilityStats{
		RecoveryInfo:      am.recov,
		Snapshots:         int(atomic.LoadInt64(&am.snapshotsWritten)),
		SnapshotFailures:  int(atomic.LoadInt64(&am.snapshotFailures)),
		CompactedSegments: int(atomic.LoadInt64(&am.segmentsCompacted)),
	}
	if am.jrn != nil {
		d.JournalSeq = am.jrn.Seq()
	}
	return d
}
