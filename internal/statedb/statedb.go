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
)

// Key identifies one entity's state record.
type Key struct {
	Entity string // "task" | "stage" | "pipeline"
	UID    string
}

// Record is one state observation.
type Record struct {
	Key   Key
	State string
	// Seq is the database-assigned commit sequence (1-based, monotonic).
	Seq uint64
}

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("statedb: database closed")

// DB is a concurrency-safe latest-state store with full history, mirroring
// the document store RP keeps per workflow. FailAfter supports fault
// injection: after N successful commits every write fails, which is how
// tests exercise EnTK's transactional-update error path.
type DB struct {
	mu      sync.Mutex
	latest  map[Key]Record
	history []Record
	seq     uint64
	closed  bool

	// failAfter, when positive, bounds the number of successful commits.
	failAfter uint64
}

// New returns an empty database.
func New() *DB {
	return &DB{latest: make(map[Key]Record)}
}

// FailAfter makes every write past n commits fail (0 disables).
func (db *DB) FailAfter(n uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.failAfter = n
}

// SaveState commits one entity state. It implements core.StateStore.
func (db *DB) SaveState(entity, uid, state string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.commitLocked(entity, uid, state)
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
	rec := Record{Key: Key{Entity: entity, UID: uid}, State: state, Seq: db.seq}
	db.latest[rec.Key] = rec
	db.history = append(db.history, rec)
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
	out := make(map[Key]string, len(db.latest))
	for k, rec := range db.latest {
		out[k] = rec.State
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
	out := make(map[string]string, len(db.latest))
	for k, rec := range db.latest {
		if k.Entity == "task" {
			out[k.UID] = rec.State
		}
	}
	return out, nil
}

// Latest returns the newest state of one entity.
func (db *DB) Latest(entity, uid string) (string, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.latest[Key{Entity: entity, UID: uid}]
	return rec.State, ok
}

// History returns every commit in order (for post-mortem analysis, the
// paper's "live or postmortem" failure reporting).
func (db *DB) History() []Record {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Record, len(db.history))
	copy(out, db.history)
	return out
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
	for k := range db.latest {
		if k.Entity == entity {
			out = append(out, k.UID)
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
