package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// appendRecords writes one record of type recType per payload to j and
// closes it.
func appendRecords(t *testing.T, j *journal.Journal, recType string, payloads ...[]byte) {
	t.Helper()
	if _, err := j.AppendRawBatch(recType, payloads); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func writeSnapshot(t *testing.T, dir string, watermark uint64, entries ...msgcodec.SnapEntry) string {
	t.Helper()
	path, err := statedb.WriteSnapshot(dir, msgcodec.Snapshot{Watermark: watermark, Entries: entries}, msgcodec.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// What entk-dump prints for each kind of path it takes, and its exit code: 2
// for a command line it cannot use, 1 for a path it cannot read to the end.
func TestRunDumpsWhatARunLeftOnDisk(t *testing.T) {
	// A journal directory: a snapshot covering the first record, then the
	// segment's records.
	jdir := t.TempDir()
	j, err := journal.OpenDir(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, j, "state",
		msgcodec.FormatBinary.EncodeStateRec("task", "task.1", "DONE"),
		msgcodec.FormatBinary.EncodeStateRec("stage", "stage.1", "DONE"))
	writeSnapshot(t, jdir, 2, msgcodec.SnapEntry{Entity: "task", UID: "task.1", State: "DONE"})

	// A flat RTS audit log.
	audit := filepath.Join(t.TempDir(), "rts-audit.log")
	if j, err = journal.Open(audit, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, j, "rts.store",
		msgcodec.FormatBinary.EncodeStoreRec("push", []string{"task.1", "task.2"}),
		msgcodec.FormatBinary.EncodeStoreRec("pull", []string{"task.1"}))

	// Two snapshots: the newer supersedes the older.
	sdir := t.TempDir()
	older := writeSnapshot(t, sdir, 3, msgcodec.SnapEntry{Entity: "task", UID: "task.1", State: "SCHEDULED"})
	newer := writeSnapshot(t, sdir, 7, msgcodec.SnapEntry{Entity: "task", UID: "task.1", State: "DONE"})

	// A journal from before the broker's durable queues were retired: its
	// frame 0x10 is named, not rejected.
	retired := filepath.Join(t.TempDir(), "broker.journal")
	if j, err = journal.Open(retired, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, j, "broker.publish", []byte{msgcodec.Magic, msgcodec.Version, 0x10, 1, 'q', 1, 1, 'b'})

	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings, in this order; none means nothing at all
		stderr string
	}{
		{name: "journal directory", args: []string{jdir}, code: 0, stdout: []string{
			statedb.SnapshotName(2) + " watermark=2 entries=1\n  task task.1 DONE\n",
			"1 segment {Index:1 BaseSeq:1}\n",
			"2 state {Entity:task UID:task.1 State:DONE}\n",
			"3 state {Entity:stage UID:stage.1 State:DONE}\n"}},
		{name: "flat audit log", args: []string{audit}, code: 0, stdout: []string{
			"1 rts.store {UIDs:[task.1 task.2] Op:push}\n",
			"2 rts.store {UIDs:[task.1] Op:pull}\n"}},
		{name: "current snapshot", args: []string{newer}, code: 0, stdout: []string{
			statedb.SnapshotName(7) + " watermark=7 entries=1\n  task task.1 DONE\n"}},
		{name: "superseded snapshot", args: []string{older}, code: 1,
			stderr: filepath.Base(older) + " is superseded by " + filepath.Base(newer)},
		{name: "retired frame", args: []string{retired}, code: 0, stdout: []string{"1 broker.publish frame 0x10, 8 bytes\n"}},
		{name: "missing path", args: []string{filepath.Join(jdir, "absent")}, code: 1, stderr: "entk-dump: "},
		{name: "no path", args: nil, code: 2, stderr: "usage: entk-dump"},
		{name: "two paths", args: []string{jdir, audit}, code: 2, stderr: "usage: entk-dump"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit code %d, want %d", code, c.code)
			}
			if (len(c.stdout) == 0) != (stdout.Len() == 0) {
				t.Errorf("stdout = %q, want %q", stdout.String(), c.stdout)
			}
			rest := stdout.String()
			for _, want := range c.stdout {
				i := strings.Index(rest, want)
				if i < 0 {
					t.Fatalf("stdout = %q, want %q after what came before", stdout.String(), want)
				}
				rest = rest[i+len(want):]
			}
			if (c.stderr == "") != (stderr.Len() == 0) || !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), c.stderr)
			}
		})
	}
}
