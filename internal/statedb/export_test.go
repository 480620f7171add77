package statedb

// FailAfter makes every write past n commits fail (0 disables).
func (db *DB) FailAfter(n uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.failAfter = n
}

// LoadStates returns the latest state per entity.
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

// Close closes the database; later writes fail with ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
	return nil
}
