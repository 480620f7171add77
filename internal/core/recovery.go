package core

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// Crash-recoverable runs (paper §II-B4: "applications can be executed on
// multiple attempts, without restarting completed tasks"). In JournalDir
// mode every committed transition is appended to a segmented journal and
// mirrored into an in-process statedb; the synchronizer periodically writes
// the mirror as a snapshot at the journal's current watermark and compacts
// segments wholly below it. Resume inverts the pipeline: load the newest
// valid snapshot, overlay the journal tail, restore DONE tasks, and let the
// normal scheduling pass recompute stage and pipeline progression. The full
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
// fresh directory is equivalent to a durable Start. Like Start, Resume is
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
	return am.Start(ctx)
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
// is DONE are restored; the mirror holds the full reconstructed map so the
// first post-resume snapshot covers pre-crash history before compaction can
// discard it.
func (am *AppManager) openDurable() error {
	am.mu.Lock()
	defer am.mu.Unlock()
	dir := am.cfg.JournalDir
	resolve := am.resolveLocked // made once: a method value per record would allocate per record
	snap, haveSnap, err := statedb.LoadLatestSnapshotWith(dir, resolve)
	if err != nil {
		return err
	}
	mirror := statedb.New()
	if haveSnap {
		if err := mirror.Restore(snap.Entries); err != nil {
			return err
		}
		am.recov.SnapshotSeq = snap.Watermark
	}
	replayed := 0
	opts := journal.Options{SegmentBytes: am.cfg.SegmentBytes}
	j, err := journal.OpenDirReplay(dir, opts, am.recov.SnapshotSeq, func(rec journal.Record) error {
		if rec.Type != "state" {
			return nil
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
		if e.Entity == "task" {
			am.recov.TasksRecovered += am.restoreDoneLocked(e.UID, e.State)
		}
	}
	am.recov.ReplayedRecords = replayed
	am.recov.Resumed = haveSnap || replayed > 0
	return nil
}

// maybeSnapshot is the synchronizer's commit hook: it accumulates committed
// state records and, every Config.SnapshotEvery, takes the mirror's image at
// the journal's current watermark and hands it to the background writer.
// Called only from the synchronizer loop goroutine — the sole journal writer
// — after the request's append has returned, so the image is exactly the
// state at the watermark and the watermark never exceeds what the file holds.
// At most one snapshot is in flight: while the writer is busy the trigger
// stays armed and the next commit tries again, so a slow disk costs snapshot
// cadence, never an ack. Whoever holds snapBusy owns am.snapw and its
// buffers: this goroutine from the swap to the hand-over, the writer after.
func (am *AppManager) maybeSnapshot(committed int) {
	if am.mirror == nil || am.cfg.SnapshotEvery <= 0 {
		return
	}
	am.snapPending += committed
	if am.snapPending < am.cfg.SnapshotEvery || !am.snapBusy.CompareAndSwap(false, true) {
		return
	}
	am.snapPending = 0
	watermark := am.jrn.Seq()
	am.snapw.Capture(am.mirror, watermark)
	am.snapWG.Add(1)
	go func() {
		defer am.snapWG.Done()
		defer am.snapBusy.Store(false)
		am.writeSnapshot(watermark)
	}()
}

// writeSnapshot persists the captured image and compacts below its
// watermark, on the background writer. Failures are counted, not fatal: the
// journal remains authoritative, so a failed snapshot only delays compaction,
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
