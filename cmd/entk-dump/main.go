// Command entk-dump prints what a durable run left on disk, one line per
// record: sequence number, record type and the decoded msgcodec payload. It
// is the inspection tool for the control plane's one wire format
// (docs/wire-format.md).
//
// Usage:
//
//	entk-dump <path>
//
// where path is a journal directory (its newest snapshot, then every segment
// record), a single journal or segment file, or a snapshot file. It exits
// nonzero on the first record it cannot read, including an intact record in
// a foreign framing (journal.ErrUnknownFraming).
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams as parameters. It returns
// the exit code: 2 for a command line it cannot use, 1 for a path it cannot
// read to the end, 0 otherwise.
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
		return journal.ReplayDir(path, printRecord)
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
