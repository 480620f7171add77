package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/statedb"
)

// recordingStore is a statedb that also keeps the order of task commits.
type recordingStore struct {
	*statedb.DB
	mu      sync.Mutex
	perTask map[string][]string
}

func (r *recordingStore) SaveState(entity, uid, state string) error {
	if entity == "task" {
		r.mu.Lock()
		r.perTask[uid] = append(r.perTask[uid], state)
		r.mu.Unlock()
	}
	return r.DB.SaveState(entity, uid, state)
}

func TestStateStoreMirrorsTransitions(t *testing.T) {
	db := &recordingStore{DB: statedb.New(), perTask: map[string][]string{}}
	am, _ := testApp(t, Config{StateStore: db})
	pipes := buildApp(1, 2, 3, 10*time.Second)
	am.AddPipelines(pipes...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	// Every task must be recorded DONE in the external database.
	states, err := db.LoadTaskStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 6 {
		t.Fatalf("recorded tasks = %d, want 6", len(states))
	}
	for uid, st := range states {
		if st != string(TaskDone) {
			t.Fatalf("task %s recorded as %s", uid, st)
		}
	}
	// Stages and the pipeline are recorded too.
	if got := len(db.UIDs("stage")); got != 2 {
		t.Fatalf("recorded stages = %d, want 2", got)
	}
	if got := len(db.UIDs("pipeline")); got != 1 {
		t.Fatalf("recorded pipelines = %d, want 1", got)
	}
	// The commits must follow each task's legal state machine order.
	want := []string{"SCHEDULING", "SCHEDULED", "SUBMITTING", "SUBMITTED", "EXECUTED", "DONE"}
	for uid, hist := range db.perTask {
		if len(hist) != len(want) {
			t.Fatalf("task %s history = %v", uid, hist)
		}
		for i := range want {
			if hist[i] != want[i] {
				t.Fatalf("task %s history[%d] = %s, want %s", uid, i, hist[i], want[i])
			}
		}
	}
}

func TestStateStoreRecoverySkipsCompletedTasks(t *testing.T) {
	// First run: half the application completes, recorded in the external
	// DB. Second run with a fresh AppManager over the same descriptions and
	// the same DB: completed tasks are not re-executed (§II-B4, without a
	// journal file).
	db := statedb.New()
	pipes := buildApp(1, 1, 4, 10*time.Second)
	am1, _ := testApp(t, Config{StateStore: db})
	am1.AddPipelines(pipes...)
	if err := runApp(t, am1); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash-restart: reset two tasks as if they never ran (the
	// other two stay DONE in the DB), then build a new AppManager over the
	// same entities.
	tasks := pipes[0].Stages()[0].Tasks()
	for _, task := range tasks[:2] {
		task.forceState(TaskInitial)
	}
	pipes[0].forceState(PipelineInitial)
	pipes[0].mu.Lock()
	pipes[0].current = 0
	pipes[0].mu.Unlock()
	pipes[0].Stages()[0].forceState(StageInitial)

	am2, rts2 := testApp(t, Config{StateStore: db})
	am2.AddPipelines(pipes...)
	if err := runApp(t, am2); err != nil {
		t.Fatal(err)
	}
	// All four tasks recovered DONE from the DB, so the second run must not
	// execute anything... except none: recovery restores every task that the
	// DB recorded as DONE.
	if got := rts2.Stats().TasksCompleted; got != 0 {
		t.Fatalf("second run executed %d tasks, want 0 (all recovered)", got)
	}
	for _, task := range tasks {
		if task.State() != TaskDone {
			t.Fatalf("task state = %s, want DONE", task.State())
		}
	}
}

func TestStateStoreWriteFailureFailsTransaction(t *testing.T) {
	db := statedb.New()
	db.FailAfter(3) // the fourth committed transition fails
	am, _ := testApp(t, Config{StateStore: db})
	am.AddPipelines(buildApp(1, 1, 2, 10*time.Second)...)
	err := runApp(t, am)
	if err == nil {
		t.Fatal("run succeeded despite external-DB write failures")
	}
	if !strings.Contains(err.Error(), "injected write failure") {
		t.Fatalf("err = %v, want injected statedb failure", err)
	}
}

func TestJournalAndStateStoreTogether(t *testing.T) {
	db := statedb.New()
	am, _ := testApp(t, Config{StateStore: db, JournalDir: t.TempDir()})
	pipes := buildApp(1, 1, 2, 10*time.Second)
	am.AddPipelines(pipes...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	states, err := db.LoadTaskStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 {
		t.Fatalf("DB recorded %d tasks, want 2", len(states))
	}
}
