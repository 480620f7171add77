// Command entk-dump prints what a durable run left on disk, one line per
// record: sequence number, record type and the decoded msgcodec payload. It
// is the inspection tool for the control plane's one wire format
// (docs/wire-format.md), and for a journal directory it is also the
// post-mortem verdict on the run (docs/recovery.md).
//
// Usage:
//
//	entk-dump <path>
//
// where path is a journal directory, a single journal or segment file, or a
// snapshot file. A directory prints its newest snapshot, then every segment
// record, then what core.ReadRunDir reads of it: the committed states tallied
// for each kind of entity, the tasks left in flight, the journal tail a Resume
// would replay, the RTS audit log's pushes, and every violation of the rules a
// run keeps across its incarnations. It exits nonzero on the first record it
// cannot read, including an intact record in a foreign framing
// (journal.ErrUnknownFraming), and on a violation.
package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams as parameters. It returns
// the exit code: 2 for a command line it cannot use, 1 for a path it cannot
// read to the end or a directory that breaks a rule, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: entk-dump <journal dir | journal file | snapshot file>")
		return 2
	}
	if err := dump(stdout, args[0]); err != nil {
		fmt.Fprintf(stderr, "entk-dump: %v\n", err)
		return 1
	}
	return 0
}

func dump(w io.Writer, path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	printRecord := func(rec journal.Record) error {
		desc, err := describe(rec.Data)
		if err != nil {
			return fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
		}
		fmt.Fprintf(w, "%d %s %s\n", rec.Seq, rec.Type, desc)
		return nil
	}
	switch {
	case st.IsDir():
		if err := dumpSnapshot(w, path, ""); err != nil {
			return err
		}
		if err := journal.ReplayDir(path, printRecord); err != nil {
			return err
		}
		return report(w, path)
	case strings.HasSuffix(path, ".snap"):
		return dumpSnapshot(w, filepath.Dir(path), filepath.Base(path))
	default:
		return journal.Replay(path, printRecord)
	}
}

// dumpSnapshot prints the newest snapshot in dir. A non-empty want names the
// snapshot file the user asked for, which must be that newest one.
func dumpSnapshot(w io.Writer, dir, want string) error {
	snap, ok, err := statedb.LoadLatestSnapshot(dir)
	if err != nil {
		return err
	}
	name := statedb.SnapshotName(snap.Watermark)
	switch {
	case !ok && want != "":
		return fmt.Errorf("%s: torn or truncated snapshot", want)
	case !ok:
		return nil
	case want != "" && want != name:
		return fmt.Errorf("%s is superseded by %s", want, name)
	}
	fmt.Fprintf(w, "%s watermark=%d entries=%d\n", name, snap.Watermark, len(snap.Entries))
	for _, e := range snap.Entries {
		fmt.Fprintf(w, "  %s %s %s\n", e.Entity, e.UID, e.State)
	}
	return nil
}

// report prints what core.ReadRunDir reads of the run directory dir, and
// fails when it finds a violation.
func report(w io.Writer, dir string) error {
	rd, err := core.ReadRunDir(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tasks: %s\n", tally(rd.Tasks))
	fmt.Fprintf(w, "stages: %s\n", tally(rd.Stages))
	fmt.Fprintf(w, "pipelines: %s\n", tally(rd.Pipelines))
	fmt.Fprintf(w, "active tasks: %d\n", rd.Active())
	fmt.Fprintf(w, "tail: %d state records to replay\n", rd.Tail)
	if rd.Pushes == nil {
		fmt.Fprintf(w, "pushes: no %s\n", core.AuditLogName)
	} else {
		pushes := 0
		for _, n := range rd.Pushes {
			pushes += n
		}
		fmt.Fprintf(w, "pushes: %d, of %d tasks\n", pushes, len(rd.Pushes))
	}
	for _, v := range rd.Violations {
		fmt.Fprintf(w, "violation: %s\n", v)
	}
	if n := len(rd.Violations); n > 0 {
		return fmt.Errorf("%s: violations: %d", dir, n)
	}
	return nil
}

// tally counts entities by state, "3 DONE, 1 SCHEDULED" in the order of the
// states' names, or "none".
func tally[S ~string](states map[string]S) string {
	counts := map[S]int{}
	for _, s := range states {
		counts[s]++
	}
	if len(counts) == 0 {
		return "none"
	}
	parts := make([]string, 0, len(counts))
	for _, s := range slices.Sorted(maps.Keys(counts)) {
		parts = append(parts, fmt.Sprintf("%d %s", counts[s], s))
	}
	return strings.Join(parts, ", ")
}

// describe decodes one frame by its frame-type byte. A frame of a type it
// has no decoder for — a retired one, such as the broker's old durable-queue
// records (0x10–0x13) — is named by type and size, not rejected.
func describe(b []byte) (string, error) {
	t, ok := msgcodec.FrameType(b)
	if !ok {
		return fmt.Sprintf("%q", b), nil
	}
	var v any
	var err error
	switch t {
	case msgcodec.FrameTaskUIDs:
		v, err = msgcodec.DecodeTaskUIDs(b)
	case msgcodec.FrameSyncFrame:
		v, err = msgcodec.DecodeSyncFrame(b)
	case msgcodec.FrameSyncAck:
		v, err = msgcodec.DecodeSyncAck(b)
	case msgcodec.FrameTaskResults:
		v, err = msgcodec.DecodeTaskResults(b)
	case msgcodec.FrameStateRec:
		v, err = msgcodec.DecodeStateRec(b)
	case msgcodec.FrameStoreRec:
		v, err = msgcodec.DecodeStoreRec(b)
	case msgcodec.FrameSegmentHdr:
		v, err = msgcodec.DecodeSegmentHeader(b)
	default:
		return fmt.Sprintf("frame 0x%02x, %d bytes", t, len(b)), nil
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%+v", v), nil
}
