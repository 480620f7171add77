package core

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// AuditLogName is the RTS task store's audit journal in a durable run's
// directory: a record per batch the store is handed (push) or hands out
// (pull). entk writes it beside the state journal.
const AuditLogName = "rts-audit.log"

// RunDir is what a durable run's directory says about the run (ReadRunDir).
type RunDir struct {
	// The state each entity last committed, by UID.
	Tasks     map[string]TaskState
	Stages    map[string]StageState
	Pipelines map[string]PipelineState
	// Tail counts the state records past the snapshot: what a Resume replays.
	Tail int
	// Pushes counts the audit log's pushes of each task; nil without an audit
	// log, as for remote and entkd-hosted runs.
	Pushes map[string]int
	// Violations describes each state record that is not a step (RunDir.commit)
	// and each push of a task no snapshot entry or state record names.
	Violations []string
}

// ReadRunDir reads dir as Resume does — the newest snapshot, then the state
// records above its watermark — and then its audit log, if it has one. It
// fails on what it cannot read or decode; a broken rule is a Violation.
func ReadRunDir(dir string) (RunDir, error) {
	r := RunDir{Tasks: map[string]TaskState{}, Stages: map[string]StageState{}, Pipelines: map[string]PipelineState{}}
	snap, _, err := statedb.LoadLatestSnapshot(dir)
	if err != nil {
		return RunDir{}, err
	}
	for _, e := range snap.Entries {
		r.commit(e.Entity, e.UID, e.State) // an image, not a step
	}
	err = journal.ReplayDir(dir, func(rec journal.Record) error {
		if rec.Type != "state" || rec.Seq <= snap.Watermark {
			return nil
		}
		sr, err := msgcodec.DecodeStateRec(rec.Data)
		if err != nil {
			return err
		}
		r.Tail++
		if from, ok := r.commit(sr.Entity, sr.UID, sr.State); !ok {
			r.Violations = append(r.Violations, fmt.Sprintf("record %d: %s %s %s -> %s", rec.Seq, sr.Entity, sr.UID, from, sr.State))
		}
		return nil
	})
	if err != nil {
		return RunDir{}, err
	}
	audit := filepath.Join(dir, AuditLogName)
	if _, err := os.Stat(audit); os.IsNotExist(err) {
		return r, nil
	}
	r.Pushes = map[string]int{}
	err = journal.Replay(audit, func(rec journal.Record) error {
		sr, err := msgcodec.DecodeStoreRec(rec.Data)
		if err != nil || sr.Op != "push" {
			return err
		}
		for _, uid := range sr.UIDs {
			if _, ok := r.Tasks[uid]; !ok {
				r.Violations = append(r.Violations, fmt.Sprintf("%s record %d: push of task %s, which nothing else names", AuditLogName, rec.Seq, uid))
			}
			r.Pushes[uid]++
		}
		return nil
	})
	if err != nil {
		return RunDir{}, err
	}
	return r, nil
}

// Active counts the tasks left in flight: past DESCRIBED, not terminal.
func (r RunDir) Active() int {
	n := 0
	for _, s := range r.Tasks {
		if s != TaskInitial && !s.Terminal() {
			n++
		}
	}
	return n
}

// commit records the state an entity committed. It returns the entity's
// state before (DESCRIBED before its first record) and whether going from
// there is a step a durable run takes across its incarnations: a legal one,
// or a restart at SCHEDULING. Resume reschedules every task it does not
// restore as DONE, and recomputes every stage and pipeline, from wherever
// the last incarnation left them — but a task never leaves DONE (it would run
// twice), and a stage or pipeline never leaves CANCELED: a whole-run Cancel
// journals none, so one on disk was asked for.
func (r *RunDir) commit(entity, uid, state string) (string, bool) {
	switch entity {
	case "task":
		from, to := cmp.Or(r.Tasks[uid], TaskInitial), TaskState(state)
		r.Tasks[uid] = to
		return string(from), legalTask(from, to) || to == TaskScheduling && from != TaskDone
	case "stage":
		from, to := cmp.Or(r.Stages[uid], StageInitial), StageState(state)
		r.Stages[uid] = to
		return string(from), legalStage(from, to) || to == StageScheduling && from != StageCanceled
	case "pipeline":
		from, to := cmp.Or(r.Pipelines[uid], PipelineInitial), PipelineState(state)
		r.Pipelines[uid] = to
		return string(from), legalPipeline(from, to) || to == PipelineScheduling && from != PipelineCanceled
	}
	return "an unknown kind of entity", false
}
