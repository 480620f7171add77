package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/msgcodec"
)

// appendState writes one binary state record and returns its seq.
func appendState(t *testing.T, j *Journal, uid string) uint64 {
	t.Helper()
	seq, err := j.AppendRaw("state", msgcodec.FormatBinary.EncodeStateRec("task", uid, "DONE"))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// stateUIDs replays dir and returns the UIDs of its state records in order.
func stateUIDs(t *testing.T, dir string) []string {
	t.Helper()
	var uids []string
	err := ReplayDir(dir, func(rec Record) error {
		if rec.Type != "state" {
			return nil
		}
		sr, err := msgcodec.DecodeStateRec(rec.Data)
		if err != nil {
			return err
		}
		uids = append(uids, sr.UID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return uids
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, idx := range []uint64{1, 42, 999999, 1000000} {
		name := SegmentName(idx)
		got, ok := parseSegmentName(name)
		if !ok || got != idx {
			t.Fatalf("parse(%q) = %d, %v; want %d", name, got, ok, idx)
		}
	}
	for _, bad := range []string{"journal-.seg", "journal-01a.seg", "snapshot-000001.seg", "journal-000001.snap"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Fatalf("parse(%q) accepted", bad)
		}
	}
}

// TestRollSealsTheActiveSegment pins Roll: each call seals the active
// segment at the record it returns and opens the next one, whose header is
// the next record, so the segments tile the sequence with no gap or overlap
// and replay in order; a flat journal cannot roll.
func TestRollSealsTheActiveSegment(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var marks []uint64
	for i := 0; i < n; i++ {
		last := appendState(t, j, uidN(i))
		if i%13 == 12 {
			wm, err := j.Roll()
			if err != nil {
				t.Fatal(err)
			}
			if wm != last {
				t.Fatalf("Roll after seq %d returned %d", last, wm)
			}
			marks = append(marks, wm)
		}
	}
	segs := j.Segments()
	if len(segs) != len(marks)+1 {
		t.Fatalf("got %d segments after %d rolls", len(segs), len(marks))
	}
	for i, s := range segs {
		if s.Index != uint64(i+1) {
			t.Fatalf("segment %d has index %d", i, s.Index)
		}
		if i < len(marks) && s.LastSeq != marks[i] {
			t.Fatalf("segment %d ends at seq %d, rolled at %d", s.Index, s.LastSeq, marks[i])
		}
		if first := mustFirstSeq(t, s.Path); i > 0 && first != segs[i-1].LastSeq+1 {
			t.Fatalf("segment %d starts at seq %d, previous ends at %d", s.Index, first, segs[i-1].LastSeq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Roll(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Roll on a closed journal = %v, want ErrClosed", err)
	}

	uids := stateUIDs(t, dir)
	if len(uids) != n {
		t.Fatalf("replayed %d state records, want %d", len(uids), n)
	}
	for i, uid := range uids {
		if uid != uidN(i) {
			t.Fatalf("record %d replayed as %q", i, uid)
		}
	}

	flat, err := Open(filepath.Join(t.TempDir(), "flat.journal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if _, err := flat.Roll(); err == nil {
		t.Fatal("Roll on a flat journal succeeded")
	}
}

// roll rolls j to its next segment.
func roll(t *testing.T, j *Journal) uint64 {
	t.Helper()
	wm, err := j.Roll()
	if err != nil {
		t.Fatal(err)
	}
	return wm
}

func uidN(i int) string {
	return "task." + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestOpenDirResumesSequenceAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 20; i++ {
		if last = appendState(t, j, uidN(i)); i%5 == 4 {
			roll(t, j)
		}
	}
	j.Close()

	j2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	seq := appendState(t, j2, "task.resumed")
	if seq != last+2 { // the last roll's segment header took last+1
		t.Fatalf("resumed seq = %d, want %d", seq, last+2)
	}
	uids := stateUIDs(t, dir)
	if len(uids) != 21 || uids[20] != "task.resumed" {
		t.Fatalf("post-reopen replay drifted: %d records, last %q", len(uids), uids[len(uids)-1])
	}
}

// TestOpenDirTruncatesTornActiveTail pins crash recovery for segmented
// journals: a torn final record in the newest segment is truncated on reopen
// and the journal appends cleanly after it.
func TestOpenDirTruncatesTornActiveTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendState(t, j, uidN(i))
	}
	j.Close()

	active := filepath.Join(dir, SegmentName(1))
	fi, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if seq := appendState(t, j2, "task.post"); seq != 6 {
		// seq 1 is the segment header record.
		t.Fatalf("post-truncation seq = %d, want 6", seq)
	}
	uids := stateUIDs(t, dir)
	want := []string{uidN(0), uidN(1), uidN(2), uidN(3), "task.post"}
	if len(uids) != len(want) {
		t.Fatalf("replayed %d state records, want %d (%q)", len(uids), len(want), uids)
	}
	for i := range want {
		if uids[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, uids[i], want[i])
		}
	}
}

// TestCompactWatermarkInvariant pins the compaction contract: only sealed
// segments whose every record lies at or below the watermark are removed —
// a segment ending exactly at it is covered, which is what lets a roll at a
// snapshot's watermark hand compaction everything before it; a segment
// holding any record above the watermark survives, and the active segment
// survives regardless.
func TestCompactWatermarkInvariant(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 40; i++ {
		if appendState(t, j, uidN(i)); i%10 == 9 {
			roll(t, j)
		}
	}
	segs := j.Segments()
	if len(segs) < 4 {
		t.Fatalf("need >= 4 segments for the invariant test, got %d", len(segs))
	}
	// Watermark at segment 1's last record: segment 1 is covered, segment 2
	// and everything later is above it.
	wm := segs[0].LastSeq
	removed, err := j.Compact(wm)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("Compact(%d) removed %d segments, want segment 1 (ending at %d)", wm, removed, wm)
	}
	// Watermark one short of segment 2's end: segment 2 straddles it.
	if removed, err := j.Compact(segs[1].LastSeq - 1); err != nil || removed != 0 {
		t.Fatalf("Compact(%d) removed %d segments (err %v), want none: segment 2 ends at %d",
			segs[1].LastSeq-1, removed, err, segs[1].LastSeq)
	}
	for _, s := range j.Segments() {
		if s.LastSeq > wm && s.LastSeq > 0 {
			if _, err := os.Stat(s.Path); err != nil {
				t.Fatalf("segment %d (ending at seq %d) above watermark %d was removed: %v",
					s.Index, s.LastSeq, wm, err)
			}
		}
	}
	if _, err := os.Stat(segs[0].Path); !os.IsNotExist(err) {
		t.Fatalf("segment at the watermark not removed (err=%v)", err)
	}

	// Replay after compaction yields a contiguous suffix of the original
	// stream, ending at the newest record — compaction loses only prefix.
	uids := stateUIDs(t, dir)
	if len(uids) == 0 || uids[len(uids)-1] != uidN(39) {
		t.Fatalf("post-compaction replay drifted: %q", uids)
	}
	for i, uid := range uids {
		if want := uidN(40 - len(uids) + i); uid != want {
			t.Fatalf("post-compaction record %d = %q, want %q (non-contiguous suffix)", i, uid, want)
		}
	}

	// Compacting at a watermark past everything still keeps the active
	// segment.
	if _, err := j.Compact(j.Seq() + 100); err != nil {
		t.Fatal(err)
	}
	segs = j.Segments()
	if len(segs) != 1 {
		t.Fatalf("%d segments after full compaction, want 1 (the active one)", len(segs))
	}
	if _, err := os.Stat(segs[0].Path); err != nil {
		t.Fatalf("active segment removed by compaction: %v", err)
	}
}

func TestCompactFlatJournalFails(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "flat.journal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Compact(1); err == nil {
		t.Fatal("Compact on a flat journal succeeded")
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentHeaderRecords pins that every segment starts with a decodable
// header record naming its index and base sequence.
func TestSegmentHeaderRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if appendState(t, j, uidN(i)); i%10 == 9 {
			roll(t, j)
		}
	}
	j.Close()

	var headers []msgcodec.SegmentHeader
	err = ReplayDir(dir, func(rec Record) error {
		if rec.Type != segTypeName {
			return nil
		}
		h, err := msgcodec.DecodeSegmentHeader(rec.Data)
		if err != nil {
			return err
		}
		if h.BaseSeq != rec.Seq {
			return nil // header records claim the seq they were assigned
		}
		headers = append(headers, h)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) < 2 {
		t.Fatalf("found %d segment headers, want >= 2", len(headers))
	}
	for i, h := range headers {
		if h.Index != uint64(i+1) {
			t.Fatalf("header %d has index %d", i, h.Index)
		}
	}
}

// TestOpenDirReplayResumesAtTheFloor pins the sequence floor: a journal
// whose surviving records end below the floor (everything under a snapshot's
// watermark compacted, the active segment empty, torn or missing) numbers
// new records from the floor, and one whose records already pass it ignores
// it.
func TestOpenDirReplayResumesAtTheFloor(t *testing.T) {
	const floor = 500
	reopen := func(t *testing.T, dir string) uint64 {
		t.Helper()
		j, err := OpenDirReplay(dir, Options{}, floor, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return appendState(t, j, "task.resumed")
	}

	t.Run("no segment", func(t *testing.T) {
		dir := t.TempDir()
		if seq := reopen(t, dir); seq != floor+2 {
			t.Fatalf("first record after the segment header = seq %d, want %d", seq, floor+2)
		}
		segs, err := ListSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 1 || mustFirstSeq(t, segs[0].Path) != floor+1 {
			t.Fatalf("segments = %+v, want one starting at seq %d", segs, floor+1)
		}
	})
	t.Run("empty active segment", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SegmentName(7)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if seq := reopen(t, dir); seq != floor+1 {
			t.Fatalf("seq %d, want %d", seq, floor+1)
		}
	})
	t.Run("records below the floor", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenDir(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendState(t, j, "task.old")
		j.Close()
		if seq := reopen(t, dir); seq != floor+1 {
			t.Fatalf("seq %d, want %d", seq, floor+1)
		}
	})
	t.Run("records past the floor", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenDirReplay(dir, Options{}, floor+100, nil)
		if err != nil {
			t.Fatal(err)
		}
		last := appendState(t, j, "task.old")
		j.Close()
		if seq := reopen(t, dir); seq != last+1 {
			t.Fatalf("seq %d, want %d", seq, last+1)
		}
	})
}

func mustFirstSeq(t *testing.T, path string) uint64 {
	t.Helper()
	first, err := FirstSeq(path)
	if err != nil {
		t.Fatal(err)
	}
	return first
}
