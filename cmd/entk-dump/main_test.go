package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
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

// runDir writes a journal directory whose records walk, line by line, each
// "entity uid STATE STATE…" of walks and, unless pushes is nil, an RTS audit
// log with one push record of those task UIDs.
func runDir(t *testing.T, pushes []string, walks ...string) string {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.OpenDir(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for _, walk := range walks {
		f := strings.Fields(walk)
		for _, state := range f[2:] {
			recs = append(recs, msgcodec.FormatBinary.EncodeStateRec(f[0], f[1], state))
		}
	}
	appendRecords(t, j, "state", recs...)
	if pushes != nil {
		if j, err = journal.Open(filepath.Join(dir, core.AuditLogName), journal.Options{}); err != nil {
			t.Fatal(err)
		}
		appendRecords(t, j, "rts.store", msgcodec.FormatBinary.EncodeStoreRec("push", pushes))
	}
	return dir
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
		msgcodec.FormatBinary.EncodeStateRec("stage", "stage.1", "SCHEDULING"))
	writeSnapshot(t, jdir, 2, msgcodec.SnapEntry{Entity: "task", UID: "task.1", State: "DONE"})

	// A run that left one task DONE and one in flight, a task that left DONE,
	// and an audit log that names a task no record does.
	const done = "task task.1 SCHEDULING SCHEDULED SUBMITTING SUBMITTED EXECUTED DONE"
	crashed := runDir(t, []string{"task.1", "task.2"}, "pipeline pipeline.1 SCHEDULING",
		"stage stage.1 SCHEDULING SCHEDULED", done, "task task.2 SCHEDULING SCHEDULED SUBMITTING SUBMITTED")
	redone := runDir(t, nil, done+" SCHEDULING")
	ghost := runDir(t, []string{"task.1", "task.ghost"}, done)

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
			"3 state {Entity:stage UID:stage.1 State:SCHEDULING}\n",
			"tasks: 1 DONE\nstages: 1 SCHEDULING\npipelines: none\nactive tasks: 0\n" +
				"tail: 1 state records to replay\npushes: no rts-audit.log\n"}},
		{name: "crashed run directory", args: []string{crashed}, code: 0, stdout: []string{
			"14 state {Entity:task UID:task.2 State:SUBMITTED}\n",
			"tasks: 1 DONE, 1 SUBMITTED\nstages: 1 SCHEDULED\npipelines: 1 SCHEDULING\nactive tasks: 1\n" +
				"tail: 13 state records to replay\npushes: 2, of 2 tasks\n"}},
		{name: "task leaves DONE", args: []string{redone}, code: 1, stdout: []string{
			"violation: record 8: task task.1 DONE -> SCHEDULING\n"}, stderr: "violations: 1"},
		{name: "push of an unknown task", args: []string{ghost}, code: 1, stdout: []string{
			"pushes: 2, of 2 tasks\nviolation: rts-audit.log record 1: push of task task.ghost"}, stderr: "violations: 1"},
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
