// Package statedb provides an external state database for EnTK's
// transactional state updates. The paper's failure model (§II-B4) notes
// that state "information is synced on disk and hooks are in place to use
// an external database"; this package is that database — an in-process
// stand-in for the MongoDB instance the RADICAL stack deploys, with the
// same role: a queryable, durable-beyond-the-process record of the latest
// state of every task, stage and pipeline, from which a restarted
// AppManager can reacquire "information about the state of the execution up
// to the latest successful transaction before the failure".
package statedb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/msgcodec"
)

// Key identifies one entity's state record.
type Key struct {
	Entity string // "task" | "stage" | "pipeline"
	UID    string
}

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("statedb: database closed")

// DB is a concurrency-safe latest-state store, mirroring the document store
// RP keeps per workflow. FailAfter supports fault injection: after N
// successful commits every write fails, which is how tests exercise EnTK's
// transactional-update error path.
//
// The latest states live in one dense slice in first-commit order, indexed
// by key; sorted holds the positions of its first len(sorted) entries in
// snapshot order (entity kind, then UID). An overwrite touches only the
// entry; only a key never seen before leaves the order stale, and
// SnapshotEntries extends it by sorting the new positions and merging them
// in, so a snapshot of an entity set that has stopped growing is a copy.
type DB struct {
	mu      sync.Mutex
	index   map[Key]int
	entries []msgcodec.SnapEntry
	sorted  []int
	seq     uint64
	closed  bool

	// failAfter, when positive, bounds the number of successful commits.
	failAfter uint64
}

// New returns an empty database.
func New() *DB {
	return &DB{index: make(map[Key]int)}
}

// FailAfter makes every write past n commits fail (0 disables).
func (db *DB) FailAfter(n uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.failAfter = n
}

// SaveState commits one entity state: SaveStates of one UID. It implements
// core.StateStore.
func (db *DB) SaveState(entity, uid, state string) error {
	return db.SaveStates(entity, []string{uid}, state)
}

// SaveStates commits the same state for every listed entity of one kind, in
// order, under one lock — the synchronizer's bulk transition. It stops at
// the first entity it cannot commit.
func (db *DB) SaveStates(entity string, uids []string, state string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, uid := range uids {
		if err := db.commitLocked(entity, uid, state); err != nil {
			return err
		}
	}
	return nil
}

// commitLocked commits one entity state; db.mu must be held.
func (db *DB) commitLocked(entity, uid, state string) error {
	if entity == "" || uid == "" {
		return fmt.Errorf("statedb: empty entity (%q) or uid (%q)", entity, uid)
	}
	if db.closed {
		return ErrClosed
	}
	if db.failAfter > 0 && db.seq >= db.failAfter {
		return fmt.Errorf("statedb: injected write failure after %d commits", db.failAfter)
	}
	db.seq++
	key := Key{Entity: entity, UID: uid}
	if i, ok := db.index[key]; ok {
		db.entries[i].State = state
		return nil
	}
	db.index[key] = len(db.entries)
	db.entries = append(db.entries, msgcodec.SnapEntry{Entity: entity, UID: uid, State: state})
	return nil
}

// LoadStates returns the latest state per entity. It implements
// core.StateStore.
func (db *DB) LoadStates() (map[Key]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	out := make(map[Key]string, len(db.entries))
	for _, e := range db.entries {
		out[Key{Entity: e.Entity, UID: e.UID}] = e.State
	}
	return out, nil
}

// LoadTaskStates returns the latest state per task UID. It implements
// core.StateStore.
func (db *DB) LoadTaskStates() (map[string]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	out := make(map[string]string, len(db.entries))
	for _, e := range db.entries {
		if e.Entity == "task" {
			out[e.UID] = e.State
		}
	}
	return out, nil
}

// Latest returns the newest state of one entity.
func (db *DB) Latest(entity, uid string) (string, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	i, ok := db.index[Key{Entity: entity, UID: uid}]
	if !ok {
		return "", false
	}
	return db.entries[i].State, true
}

// Commits returns the number of committed writes.
func (db *DB) Commits() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.seq
}

// UIDs lists the recorded UIDs of one entity kind, sorted.
func (db *DB) UIDs(entity string) []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []string
	for _, e := range db.entries {
		if e.Entity == entity {
			out = append(out, e.UID)
		}
	}
	sort.Strings(out)
	return out
}

// Close closes the database; later writes fail with ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
	return nil
}
