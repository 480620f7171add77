package statedb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/journal"
	"repro/internal/msgcodec"
)

// Snapshot persistence: the durability layer's periodic image of the
// database's latest states, written next to the journal segments it makes
// compactable. A snapshot file holds one length-prefixed, CRC-protected
// msgcodec Snapshot frame (0x09) — the same [len][crc32][payload] framing
// journal records use — and is written to a temporary file and renamed into
// place, so a crash mid-snapshot leaves either the previous snapshot or a
// stray .tmp file (removed by the next successful write), never a
// half-readable one. Loaders additionally validate
// the CRC and skip torn files, falling back to the next-newest snapshot; an
// intact file in a foreign framing is journal.ErrUnknownFraming, because the
// segments it made compactable may already be gone.

// snapPrefix/snapSuffix define the snapshot naming scheme,
// "snapshot-<watermark>.snap" with the watermark as fixed-width hex so
// lexical order equals watermark order (docs/wire-format.md).
const (
	snapPrefix = "snapshot-"
	snapSuffix = ".snap"
)

// snapHeaderLen is the payload length + CRC32 prefix of a snapshot file.
const snapHeaderLen = 4 + 4

// keepSnapshots is how many generations WriteSnapshot retains: the new
// snapshot plus one predecessor, so a reader racing the pruner (or a torn
// newest file after a crash) still finds a valid fallback.
const keepSnapshots = 2

// SnapshotName returns the file name of the snapshot at the given
// watermark: snapshot-00000000000003e8.snap.
func SnapshotName(watermark uint64) string {
	const hex = "0123456789abcdef"
	var b [len(snapPrefix) + 16 + len(snapSuffix)]byte
	copy(b[:], snapPrefix)
	for i := range 16 {
		b[len(snapPrefix)+15-i] = hex[watermark>>(4*i)&0xf]
	}
	copy(b[len(snapPrefix)+16:], snapSuffix)
	return string(b[:])
}

// parseSnapshotName extracts the watermark from a snapshot file name.
func parseSnapshotName(name string) (uint64, bool) {
	if len(name) != len(snapPrefix)+16+len(snapSuffix) ||
		name[:len(snapPrefix)] != snapPrefix ||
		name[len(name)-len(snapSuffix):] != snapSuffix {
		return 0, false
	}
	var wm uint64
	for _, c := range []byte(name[len(snapPrefix) : len(snapPrefix)+16]) {
		switch {
		case c >= '0' && c <= '9':
			wm = wm<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			wm = wm<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return wm, true
}

// SnapshotEntries exports the database's latest state per entity as
// snapshot entries, sorted by entity kind then UID so snapshots of the same
// state are byte-identical. The result is the caller's own copy.
func (db *DB) SnapshotEntries() []msgcodec.SnapEntry { return db.AppendSnapshotEntries(nil) }

// AppendSnapshotEntries is SnapshotEntries onto dst: a caller that passes the
// slice it keeps, emptied, copies the mirror without allocating once the
// slice has grown to it.
func (db *DB) AppendSnapshotEntries(dst []msgcodec.SnapEntry) []msgcodec.SnapEntry {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.extendOrderLocked()
	dst = slices.Grow(dst, len(db.sorted))
	for _, pos := range db.sorted {
		dst = append(dst, db.entries[pos])
	}
	return dst
}

// extendOrderLocked brings db.sorted up to date with the entries committed
// since it was last extended: their positions are sorted on their own and
// merged into the existing order. db.mu must be held.
func (db *DB) extendOrderLocked() {
	have := len(db.sorted)
	if have == len(db.entries) {
		return
	}
	fresh := make([]int, len(db.entries)-have)
	for i := range fresh {
		fresh[i] = have + i
	}
	byKey := func(a, b int) int {
		ea, eb := &db.entries[a], &db.entries[b]
		if c := cmp.Compare(ea.Entity, eb.Entity); c != 0 {
			return c
		}
		return cmp.Compare(ea.UID, eb.UID)
	}
	slices.SortFunc(fresh, byKey)
	merged := make([]int, 0, len(db.entries))
	old := db.sorted
	for len(old) > 0 && len(fresh) > 0 {
		if byKey(old[0], fresh[0]) < 0 {
			merged, old = append(merged, old[0]), old[1:]
		} else {
			merged, fresh = append(merged, fresh[0]), fresh[1:]
		}
	}
	db.sorted = append(append(merged, old...), fresh...)
}

// Restore seeds the database with snapshot entries, committed in order
// under one lock. Typically called on a fresh DB before overlaying the
// journal tail. Like SaveState it stops at the first entry it cannot commit.
func (db *DB) Restore(entries []msgcodec.SnapEntry) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.entries) == 0 {
		db.index = make(map[Key]int, len(entries))
		db.entries = make([]msgcodec.SnapEntry, 0, len(entries))
	}
	for _, e := range entries {
		if err := db.commitLocked(e.Entity, e.UID, e.State); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot atomically persists snap into dir through buffers of its own
// (a SnapshotWriter made for the one call), returning the snapshot file's
// path.
func WriteSnapshot(dir string, snap msgcodec.Snapshot, _ msgcodec.Format) (string, error) {
	return (&SnapshotWriter{snap: snap}).Write(dir)
}

// SnapshotWriter writes a database's snapshots through two buffers it keeps
// from one snapshot to the next: the entries copied out of the database and
// the file image encoded from them. Its owner runs Capture and Write one
// after the other, never two at a time (the synchronizer's snapshots are
// single-flight), so a snapshot costs its copy and its bytes.
type SnapshotWriter struct {
	snap  msgcodec.Snapshot
	image []byte
}

// Capture copies db's latest states as the image at watermark and returns
// the copy, which is the writer's and lasts until its next Capture.
func (w *SnapshotWriter) Capture(db *DB, watermark uint64) []msgcodec.SnapEntry {
	w.snap.Watermark = watermark
	w.snap.Entries = db.AppendSnapshotEntries(w.snap.Entries[:0])
	return w.snap.Entries
}

// Write atomically persists the captured image into dir, returning the
// snapshot file's path. On success, snapshot generations older than the
// newest keepSnapshots and stale temporaries are pruned (best effort).
func (w *SnapshotWriter) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("statedb: snapshot mkdir: %w", err)
	}
	// Header and payload in one buffer, sized once.
	buf := slices.Grow(w.image[:0], snapHeaderLen+msgcodec.SnapshotSize(&w.snap))
	buf = msgcodec.AppendSnapshot(buf[:snapHeaderLen], &w.snap)
	payload := buf[snapHeaderLen:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	w.image = buf

	path := filepath.Join(dir, SnapshotName(w.snap.Watermark))
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("statedb: snapshot create: %w", err)
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("statedb: snapshot write: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("statedb: snapshot sync: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("statedb: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("statedb: snapshot rename: %w", err)
	}
	pruneSnapshots(dir)
	return path, nil
}

// pruneSnapshots removes all but the newest keepSnapshots snapshot files,
// and every snapshot temporary: it runs after WriteSnapshot's rename and at
// most one snapshot write is in flight, so a .tmp still there is what a
// process that died mid-write left behind. It reads the directory's names
// once, for both. Best effort: pruning failures leave extra files, never
// lose data.
func pruneSnapshots(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	names, _ := d.Readdirnames(-1) //nolint:errcheck // best effort: prune what was listed
	d.Close()                      //nolint:errcheck // read-only
	// newest holds the keepSnapshots highest watermarks found, highest first.
	var newest [keepSnapshots]uint64
	found := 0
	for _, name := range names {
		wm, ok := parseSnapshotName(name)
		if !ok {
			continue
		}
		found++
		for i := range newest {
			if wm > newest[i] {
				copy(newest[i+1:], newest[i:])
				newest[i] = wm
				break
			}
		}
	}
	for _, name := range names {
		wm, ok := parseSnapshotName(name)
		stale := ok && found > keepSnapshots && wm < newest[keepSnapshots-1]
		if stale || isSnapshotTemp(name) {
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck
		}
	}
}

// isSnapshotTemp reports whether name is a snapshot's temporary file.
func isSnapshotTemp(name string) bool {
	base, ok := strings.CutSuffix(name, ".tmp")
	_, snap := parseSnapshotName(base)
	return ok && snap
}

// listSnapshots returns the snapshot watermarks in dir, newest first, and
// the path per watermark.
func listSnapshots(dir string) ([]uint64, map[uint64]string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil
	}
	byWM := map[uint64]string{}
	var wms []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		wm, ok := parseSnapshotName(e.Name())
		if !ok {
			continue
		}
		byWM[wm] = filepath.Join(dir, e.Name())
		wms = append(wms, wm)
	}
	sort.Slice(wms, func(i, k int) bool { return wms[i] > wms[k] })
	return wms, byWM
}

// LoadLatestSnapshot returns the newest valid snapshot in dir. A torn or
// truncated snapshot file is skipped in favor of the next-newest one — the
// crash-mid-snapshot fallback. ok is false when no valid snapshot exists
// (including a missing directory). A snapshot that is intact on disk but
// does not decode fails the load with journal.ErrUnknownFraming, and one
// that cannot be read fails it with the read error: falling back past
// either would replay a journal whose segments below its watermark may
// already be compacted, silently dropping committed states.
func LoadLatestSnapshot(dir string) (snap msgcodec.Snapshot, ok bool, err error) {
	return LoadLatestSnapshotWith(dir, nil)
}

// LoadLatestSnapshotWith is LoadLatestSnapshot taking every string the
// resolver knows from it instead of copying it out of the file
// (msgcodec.DecodeSnapshotInto).
func LoadLatestSnapshotWith(dir string, resolve msgcodec.Resolve) (snap msgcodec.Snapshot, ok bool, err error) {
	wms, byWM := listSnapshots(dir)
	for _, wm := range wms {
		s, valid, err := readSnapshot(byWM[wm], resolve)
		if err != nil {
			return msgcodec.Snapshot{}, false, err
		}
		if valid {
			return s, true, nil
		}
	}
	return msgcodec.Snapshot{}, false, nil
}

// readSnapshot reads and decodes one snapshot file. valid is false for a
// torn file, or one the pruner removed after it was listed; any other read
// error is returned, because falling back past a snapshot that is merely
// unreadable right now has the same cost as falling back past a foreign one.
func readSnapshot(path string, resolve msgcodec.Resolve) (s msgcodec.Snapshot, valid bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return msgcodec.Snapshot{}, false, nil
		}
		return msgcodec.Snapshot{}, false, fmt.Errorf("statedb: read snapshot: %w", err)
	}
	return decodeSnapshot(path, buf, resolve)
}

// decodeSnapshot decodes the bytes of one snapshot file (path names it in
// errors). valid is false for a torn file; err is set for an intact one in a
// foreign framing.
func decodeSnapshot(path string, buf []byte, resolve msgcodec.Resolve) (s msgcodec.Snapshot, valid bool, err error) {
	if len(buf) <= snapHeaderLen {
		return msgcodec.Snapshot{}, false, nil
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	crc := binary.LittleEndian.Uint32(buf[4:8])
	payload := buf[snapHeaderLen:]
	if int(n) != len(payload) || crc32.ChecksumIEEE(payload) != crc {
		return msgcodec.Snapshot{}, false, nil
	}
	if err = msgcodec.DecodeSnapshotInto(&s, payload, resolve); err != nil {
		return msgcodec.Snapshot{}, false, fmt.Errorf("%w: %s: %w", journal.ErrUnknownFraming, path, err)
	}
	return s, true, nil
}
