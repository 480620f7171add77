package statedb

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/msgcodec"
)

func TestSnapshotNameRoundTrip(t *testing.T) {
	for _, wm := range []uint64{0, 1, 1000, 1 << 60} {
		name := SnapshotName(wm)
		got, ok := parseSnapshotName(name)
		if !ok || got != wm {
			t.Fatalf("parse(%q) = %d, %v; want %d", name, got, ok, wm)
		}
	}
	for _, bad := range []string{"snapshot-.snap", "snapshot-123.snap", "journal-000001.seg",
		"snapshot-00000000000000zz.snap"} {
		if _, ok := parseSnapshotName(bad); ok {
			t.Fatalf("parse(%q) accepted", bad)
		}
	}
}

// TestSnapshotRoundTrip pins the full disk round trip:
// a DB's entries written with WriteSnapshot load back identically via
// LoadLatestSnapshot and seed a fresh DB via Restore.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := New()
	saves := []struct{ entity, uid, state string }{
		{"task", "task.1", "SCHEDULED"},
		{"task", "task.1", "DONE"}, // latest wins
		{"task", "task.2", "FAILED"},
		{"stage", "stage.1", "DONE"},
		{"pipeline", "pipe.1", "SCHEDULING"},
	}
	for _, s := range saves {
		if err := db.SaveState(s.entity, s.uid, s.state); err != nil {
			t.Fatal(err)
		}
	}
	snap := msgcodec.Snapshot{Watermark: 42, Entries: db.SnapshotEntries()}
	if _, err := WriteSnapshot(dir, snap, msgcodec.FormatBinary); err != nil {
		t.Fatal(err)
	}

	got, ok, err := LoadLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("LoadLatestSnapshot: ok=%v err=%v", ok, err)
	}
	if got.Watermark != 42 || len(got.Entries) != 4 {
		t.Fatalf("snapshot drifted: %+v", got)
	}

	db2 := New()
	if err := db2.Restore(got.Entries); err != nil {
		t.Fatal(err)
	}
	states, err := db2.LoadTaskStates()
	if err != nil {
		t.Fatal(err)
	}
	if states["task.1"] != "DONE" || states["task.2"] != "FAILED" || len(states) != 2 {
		t.Fatalf("restored task states drifted: %v", states)
	}
}

// TestSnapshotEntriesDeterministic pins the sorted-entries property: two
// DBs reaching the same final state through different write orders export
// byte-identical snapshots.
func TestSnapshotEntriesDeterministic(t *testing.T) {
	a, b := New(), New()
	a.SaveState("task", "t.1", "DONE")   //nolint:errcheck
	a.SaveState("task", "t.2", "FAILED") //nolint:errcheck
	a.SaveState("stage", "s.1", "DONE")  //nolint:errcheck
	b.SaveState("stage", "s.1", "DONE")  //nolint:errcheck
	b.SaveState("task", "t.2", "SCHED")  //nolint:errcheck
	b.SaveState("task", "t.2", "FAILED") //nolint:errcheck
	b.SaveState("task", "t.1", "DONE")   //nolint:errcheck
	ea := msgcodec.FormatBinary.EncodeSnapshot(msgcodec.Snapshot{Watermark: 1, Entries: a.SnapshotEntries()})
	eb := msgcodec.FormatBinary.EncodeSnapshot(msgcodec.Snapshot{Watermark: 1, Entries: b.SnapshotEntries()})
	if string(ea) != string(eb) {
		t.Fatal("snapshots of identical state differ")
	}
}

// walkAndSort is SnapshotEntries as it was before the mirror cached its
// order: collect the latest state of every key, sort by entity kind then
// UID. It stays here as the reference the cached order is held to.
func walkAndSort(t *testing.T, db *DB) []msgcodec.SnapEntry {
	t.Helper()
	states, err := db.LoadStates()
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]msgcodec.SnapEntry, 0, len(states))
	for k, state := range states {
		entries = append(entries, msgcodec.SnapEntry{Entity: k.Entity, UID: k.UID, State: state})
	}
	sort.Slice(entries, func(i, k int) bool {
		if entries[i].Entity != entries[k].Entity {
			return entries[i].Entity < entries[k].Entity
		}
		return entries[i].UID < entries[k].UID
	})
	return entries
}

// TestSnapshotEntriesMatchesWalkAndSort drives randomised commit sequences
// — single and bulk commits, overwrites, and keys that first appear late and
// sort anywhere — with a snapshot taken at random points, and requires every
// snapshot to equal the walk-and-sort reference and to be the caller's own
// copy.
func TestSnapshotEntriesMatchesWalkAndSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		entities := []string{"task", "stage", "pipeline"}
		uid := func() string { return fmt.Sprintf("u.%03d", rng.Intn(150)) }
		for step := 0; step < 600; step++ {
			entity := entities[rng.Intn(len(entities))]
			state := fmt.Sprintf("S%d", rng.Intn(5))
			if rng.Intn(3) == 0 {
				uids := make([]string, 1+rng.Intn(40))
				for i := range uids {
					uids[i] = uid()
				}
				if err := db.SaveStates(entity, uids, state); err != nil {
					t.Fatal(err)
				}
			} else if err := db.SaveState(entity, uid(), state); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(25) != 0 {
				continue
			}
			got, want := db.SnapshotEntries(), walkAndSort(t, db)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: snapshot of %d entries differs from the walk-and-sort of %d",
					seed, step, len(got), len(want))
			}
			for i := range got {
				got[i].State = "scribbled"
			}
			if again := db.SnapshotEntries(); !slices.Equal(again, want) {
				t.Fatalf("seed %d step %d: writing to a returned snapshot changed the database", seed, step)
			}
		}
	}
}

func TestWriteSnapshotPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	db := New()
	db.SaveState("task", "t.1", "DONE") //nolint:errcheck
	for wm := uint64(1); wm <= 5; wm++ {
		if _, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: wm, Entries: db.SnapshotEntries()}, msgcodec.FormatBinary); err != nil {
			t.Fatal(err)
		}
	}
	wms, _ := listSnapshots(dir)
	if len(wms) != keepSnapshots {
		t.Fatalf("%d snapshots retained, want %d", len(wms), keepSnapshots)
	}
	if wms[0] != 5 || wms[1] != 4 {
		t.Fatalf("retained watermarks %v, want [5 4]", wms)
	}
}

// A process that dies between creating a snapshot's temporary and renaming it
// leaves the temporary behind; nothing ever renames it, so the next
// successful write removes it — and loading never looks at it.
func TestWriteSnapshotRemovesStaleTemporaries(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, SnapshotName(7)+".tmp")
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	bystander := filepath.Join(dir, "journal-000001.seg.tmp") // not a snapshot's: not ours to remove
	if err := os.WriteFile(bystander, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := LoadLatestSnapshot(dir); ok || err != nil {
		t.Fatalf("a directory holding only a temporary loaded a snapshot: %v, %v", ok, err)
	}
	db := New()
	db.SaveState("task", "t.1", "DONE") //nolint:errcheck
	want := msgcodec.Snapshot{Watermark: 9, Entries: db.SnapshotEntries()}
	if _, err := WriteSnapshot(dir, want, msgcodec.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("the stale temporary survived a snapshot write: %v", err)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("a file that is not a snapshot temporary was removed: %v", err)
	}
	got, ok, err := LoadLatestSnapshot(dir)
	if err != nil || !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v, %v, %v; want %+v", got, ok, err, want)
	}
}

// TestLoadLatestSkipsTornSnapshot pins the crash-mid-snapshot fallback: a
// truncated or corrupted newest snapshot is skipped in favor of its
// predecessor.
func TestLoadLatestSkipsTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := New()
	db.SaveState("task", "t.1", "DONE") //nolint:errcheck
	if _, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: 10, Entries: db.SnapshotEntries()}, msgcodec.FormatBinary); err != nil {
		t.Fatal(err)
	}
	db.SaveState("task", "t.2", "DONE") //nolint:errcheck
	path, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: 20, Entries: db.SnapshotEntries()}, msgcodec.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the newest snapshot mid-file.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	snap, ok, err := LoadLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if snap.Watermark != 10 || len(snap.Entries) != 1 {
		t.Fatalf("fallback snapshot drifted: %+v", snap)
	}

	// Corrupt (bit-flip) instead of truncate: same fallback.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, ok, err = LoadLatestSnapshot(dir)
	if err != nil || !ok || snap.Watermark != 10 {
		t.Fatalf("corrupted-newest fallback drifted: %+v ok=%v err=%v", snap, ok, err)
	}
}

// TestLoadLatestRejectsUnknownFraming pins that a snapshot which is intact
// on disk (length and CRC match) but not decodable by this build — the
// retired JSON document, or a frame from a newer wire version — fails the
// load with journal.ErrUnknownFraming instead of being skipped: the journal
// segments below its watermark may already be compacted, so falling back to
// an older snapshot would silently drop committed states.
func TestLoadLatestRejectsUnknownFraming(t *testing.T) {
	newer := msgcodec.FormatBinary.EncodeSnapshot(msgcodec.Snapshot{Watermark: 20})
	newer[1] = msgcodec.Version + 1
	foreign := map[string][]byte{
		"json document": []byte(`{"watermark":20,"entries":[{"entity":"task","uid":"t.2","state":"DONE"}]}`),
		"newer version": newer,
	}
	for name, payload := range foreign {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: 10}, msgcodec.FormatBinary); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, snapHeaderLen, snapHeaderLen+len(payload))
			binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
			path := filepath.Join(dir, SnapshotName(20))
			if err := os.WriteFile(path, append(buf, payload...), 0o644); err != nil {
				t.Fatal(err)
			}
			if snap, ok, err := LoadLatestSnapshot(dir); !errors.Is(err, journal.ErrUnknownFraming) || ok {
				t.Fatalf("LoadLatestSnapshot = %+v, ok=%v, err=%v; want ErrUnknownFraming", snap, ok, err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(snapHeaderLen+len(payload)) {
				t.Fatalf("load changed the snapshot file: %v, %v", fi, err)
			}
		})
	}
}

func TestLoadLatestSnapshotEmptyDir(t *testing.T) {
	_, ok, err := LoadLatestSnapshot(filepath.Join(t.TempDir(), "absent"))
	if err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
}

// TestSnapshotUnderConcurrentWrites exercises SnapshotEntries racing
// SaveState — the synchronizer snapshots while other components mutate
// nothing (single committer), but the DB itself must stay race-free for the
// statestore path where Progress snapshots race commits. Run under -race.
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.SaveState("task", "t.1", "STATE") //nolint:errcheck
		}
	}()
	for i := 0; i < 100; i++ {
		db.SnapshotEntries()
	}
	close(stop)
	wg.Wait()
}

// TestLoadLatestReturnsReadErrors pins that an unreadable snapshot is not a
// torn one: only a file the pruner removed between listing and reading falls
// through to the next generation. Anything else fails the load, because the
// segments below the unreadable snapshot's watermark may already be gone.
func TestLoadLatestReturnsReadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: 10}, msgcodec.FormatBinary); err != nil {
		t.Fatal(err)
	}
	// A symlink to itself cannot be opened (ELOOP), even by root.
	newest := filepath.Join(dir, SnapshotName(20))
	if err := os.Symlink(newest, newest); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if snap, ok, err := LoadLatestSnapshot(dir); err == nil || ok || errors.Is(err, journal.ErrUnknownFraming) {
		t.Fatalf("LoadLatestSnapshot = %+v, ok=%v, err=%v; want the read error", snap, ok, err)
	}

	// A dangling name is the pruner race: fall back to the older generation.
	if err := os.Remove(newest); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "pruned"), newest); err != nil {
		t.Fatal(err)
	}
	if snap, ok, err := LoadLatestSnapshot(dir); err != nil || !ok || snap.Watermark != 10 {
		t.Fatalf("LoadLatestSnapshot past a vanished file = %+v, ok=%v, err=%v; want watermark 10", snap, ok, err)
	}
}

// TestRestoreCommitsInOrder pins that Restore is SaveState per entry in
// everything but locking: one commit per entry, later entries over earlier
// state, and the same refusals.
func TestRestoreCommitsInOrder(t *testing.T) {
	entries := []msgcodec.SnapEntry{
		{Entity: "pipeline", UID: "p.1", State: "DONE"},
		{Entity: "task", UID: "t.1", State: "DONE"},
		{Entity: "task", UID: "t.2", State: "FAILED"},
	}
	db := New()
	if err := db.SaveState("task", "t.1", "SCHEDULED"); err != nil {
		t.Fatal(err)
	}
	if err := db.Restore(entries); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Latest("task", "t.1"); got != "DONE" || db.Commits() != 4 {
		t.Fatalf("after Restore: t.1 = %q, %d commits; want DONE, 4", got, db.Commits())
	}
	for _, e := range entries {
		if got, ok := db.Latest(e.Entity, e.UID); !ok || got != e.State {
			t.Fatalf("after Restore: %s %s = %q, %v; want %q", e.Entity, e.UID, got, ok, e.State)
		}
	}

	if err := New().Restore([]msgcodec.SnapEntry{{Entity: "task", UID: "", State: "DONE"}}); err == nil {
		t.Fatal("Restore accepted an empty UID")
	}
	limited := New()
	limited.FailAfter(2)
	if err := limited.Restore(entries); err == nil || limited.Commits() != 2 {
		t.Fatalf("Restore past FailAfter(2): err=%v after %d commits", err, limited.Commits())
	}
	closed := New()
	closed.Close() //nolint:errcheck
	if err := closed.Restore(entries); !errors.Is(err, ErrClosed) {
		t.Fatalf("Restore on a closed DB: %v", err)
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot loader: it never
// panics, an error is always ErrUnknownFraming on a file whose length and
// CRC hold, and a file it calls valid re-encodes to the same entries.
func FuzzReadSnapshot(f *testing.F) {
	frame := func(payload []byte) []byte {
		buf := make([]byte, snapHeaderLen, snapHeaderLen+len(payload))
		binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
		return append(buf, payload...)
	}
	intact := frame(msgcodec.FormatBinary.EncodeSnapshot(msgcodec.Snapshot{Watermark: 42, Entries: []msgcodec.SnapEntry{
		{Entity: "task", UID: "t.1", State: "DONE"},
		{Entity: "stage", UID: "s.1", State: "SCHEDULED"},
	}}))
	f.Add(intact)
	f.Add(intact[:len(intact)-3])
	f.Add(frame([]byte(`{"watermark":20,"entries":[]}`)))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, valid, err := decodeSnapshot("fuzz", data, nil)
		if err != nil {
			if valid || !errors.Is(err, journal.ErrUnknownFraming) {
				t.Fatalf("valid=%v err=%v", valid, err)
			}
			return
		}
		if !valid {
			return
		}
		again, ok, err := decodeSnapshot("fuzz", frame(msgcodec.FormatBinary.EncodeSnapshot(snap)), nil)
		if err != nil || !ok || again.Watermark != snap.Watermark || len(again.Entries) != len(snap.Entries) {
			t.Fatalf("re-encoded snapshot drifted: %+v -> %+v (ok=%v err=%v)", snap, again, ok, err)
		}
		for i := range snap.Entries {
			if again.Entries[i] != snap.Entries[i] {
				t.Fatalf("entry %d drifted: %+v -> %+v", i, snap.Entries[i], again.Entries[i])
			}
		}
	})
}

// goldenSnapshotFile is snapshot-00000000000003e8.snap as the commit before
// SnapshotWriter wrote it for the four entities below: length, CRC, frame.
const goldenSnapshotFile = "6e000000cc87f1eebf0109e8070408706970656c696e650c706970656c696e652e3030300a5343484544554c494e470573746167650d73746167652e3030302e30303004444f4e45047461736b0b7461736b2e30303030343204444f4e45047461736b0b7461736b2e303030303433064641494c4544"

// TestSnapshotWriterReusesItsBuffers holds a snapshot file to its old bytes
// through both writers, the reused one after its buffers have held a larger
// image of other entities, and holds a warm writer to encoding an image
// without allocating (what Write still allocates is paths and file handles).
func TestSnapshotWriterReusesItsBuffers(t *testing.T) {
	small := New()
	for _, e := range []msgcodec.SnapEntry{
		{Entity: "task", UID: "task.000043", State: "FAILED"},
		{Entity: "stage", UID: "stage.000.000", State: "DONE"},
		{Entity: "task", UID: "task.000042", State: "DONE"},
		{Entity: "pipeline", UID: "pipeline.000", State: "SCHEDULING"}} {
		small.SaveState(e.Entity, e.UID, e.State) //nolint:errcheck
	}
	large := New()
	for i := 0; i < 500; i++ {
		large.SaveState("task", fmt.Sprintf("other.%06d", i), "EXECUTED") //nolint:errcheck
	}
	read := func(path string, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(raw)
	}

	var w SnapshotWriter
	w.Capture(large, 7)
	read(w.Write(t.TempDir()))
	w.Capture(small, 1000)
	if got := read(w.Write(t.TempDir())); got != goldenSnapshotFile {
		t.Errorf("the reused writer changed the snapshot file:\n got %s\nwant %s", got, goldenSnapshotFile)
	}
	oneShot := msgcodec.Snapshot{Watermark: 1000, Entries: small.SnapshotEntries()}
	if got := read(WriteSnapshot(t.TempDir(), oneShot, msgcodec.FormatBinary)); got != goldenSnapshotFile {
		t.Errorf("WriteSnapshot changed the snapshot file:\n got %s\nwant %s", got, goldenSnapshotFile)
	}

	entries, image := &w.snap.Entries[0], &w.image[0]
	if n := testing.AllocsPerRun(20, func() { w.Capture(large, 8) }); n != 0 {
		t.Errorf("Capture into a warm writer: %.0f allocations, want 0", n)
	}
	read(w.Write(t.TempDir()))
	if entries != &w.snap.Entries[0] || image != &w.image[0] {
		t.Error("a warm writer replaced its buffers for an image that fits them")
	}
}
