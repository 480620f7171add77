package statedb

// LoadStates returns the latest state per entity.
func (db *DB) LoadStates() (map[Key]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
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
