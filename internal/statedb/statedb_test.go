package statedb

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestSaveAndLatest(t *testing.T) {
	db := New()
	if err := db.SaveState("task", "task.1", "SCHEDULED"); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveState("task", "task.1", "DONE"); err != nil {
		t.Fatal(err)
	}
	got, ok := db.Latest("task", "task.1")
	if !ok || got != "DONE" {
		t.Fatalf("latest = %q, %v", got, ok)
	}
	if db.Commits() != 2 {
		t.Fatalf("commits = %d", db.Commits())
	}
}

func TestEmptyKeysRejected(t *testing.T) {
	db := New()
	if err := db.SaveState("", "uid", "S"); err == nil {
		t.Fatal("empty entity accepted")
	}
	if err := db.SaveState("task", "", "S"); err == nil {
		t.Fatal("empty uid accepted")
	}
}

func TestLoadStatesSnapshots(t *testing.T) {
	db := New()
	db.SaveState("task", "t1", "DONE")     //nolint:errcheck
	db.SaveState("stage", "s1", "DONE")    //nolint:errcheck
	db.SaveState("pipeline", "p1", "DONE") //nolint:errcheck
	m, err := db.LoadStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("states = %d, want 3", len(m))
	}
	if m[Key{"task", "t1"}] != "DONE" {
		t.Fatalf("task state = %q", m[Key{"task", "t1"}])
	}
}

func TestLoadTaskStatesFiltersEntities(t *testing.T) {
	db := New()
	db.SaveState("task", "t1", "DONE")   //nolint:errcheck
	db.SaveState("task", "t2", "FAILED") //nolint:errcheck
	db.SaveState("stage", "s1", "DONE")  //nolint:errcheck
	m, err := db.LoadTaskStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["t1"] != "DONE" || m["t2"] != "FAILED" {
		t.Fatalf("task states = %v", m)
	}
}

// TestOverwriteKeepsLatest pins that a key committed many times holds its
// last state, counts every commit, and stays one entity.
func TestOverwriteKeepsLatest(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		db.SaveState("task", "t", fmt.Sprintf("S%d", i)) //nolint:errcheck
	}
	if got, ok := db.Latest("task", "t"); !ok || got != "S9" {
		t.Fatalf("latest = %q, %v; want S9", got, ok)
	}
	if db.Commits() != 10 || len(db.UIDs("task")) != 1 {
		t.Fatalf("%d commits over %d tasks; want 10 over 1", db.Commits(), len(db.UIDs("task")))
	}
}

func TestUIDsSorted(t *testing.T) {
	db := New()
	db.SaveState("task", "b", "DONE")  //nolint:errcheck
	db.SaveState("task", "a", "DONE")  //nolint:errcheck
	db.SaveState("stage", "z", "DONE") //nolint:errcheck
	got := db.UIDs("task")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("uids = %v", got)
	}
}

func TestCloseStopsWrites(t *testing.T) {
	db := New()
	db.SaveState("task", "t", "DONE") //nolint:errcheck
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveState("task", "t", "FAILED"); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := db.LoadStates(); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestFailAfterInjectsWriteFailures(t *testing.T) {
	db := New()
	db.FailAfter(2)
	if err := db.SaveState("task", "t", "A"); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveState("task", "t", "B"); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveState("task", "t", "C"); err == nil {
		t.Fatal("third write succeeded despite FailAfter(2)")
	}
	if got, _ := db.Latest("task", "t"); got != "B" {
		t.Fatalf("latest = %q, want B (failed write must not commit)", got)
	}
}

func TestConcurrentWriters(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				db.SaveState("task", fmt.Sprintf("t%d-%d", w, i), "DONE") //nolint:errcheck
			}
		}(w)
	}
	wg.Wait()
	if db.Commits() != 800 {
		t.Fatalf("commits = %d, want 800", db.Commits())
	}
	if got := len(db.UIDs("task")); got != 800 {
		t.Fatalf("uids = %d, want 800", got)
	}
}

// Property: after any sequence of writes to one key, Latest returns the last
// written state and Commits equals the number of writes.
func TestLatestReflectsLastWriteProperty(t *testing.T) {
	check := func(states []string) bool {
		db := New()
		var last string
		writes := 0
		for _, s := range states {
			if err := db.SaveState("task", "t", s); err != nil {
				return false
			}
			last = s
			writes++
		}
		if writes == 0 {
			_, ok := db.Latest("task", "t")
			return !ok
		}
		got, ok := db.Latest("task", "t")
		return ok && got == last && db.Commits() == uint64(writes)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
