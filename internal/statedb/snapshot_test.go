package statedb

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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
