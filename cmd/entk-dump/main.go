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
	"os"
	"path/filepath"
	"strings"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: entk-dump <journal dir | journal file | snapshot file>")
		os.Exit(2)
	}
	if err := dump(os.Args[1]); err != nil {
		fmt.Fprintf(os.Stderr, "entk-dump: %v\n", err)
		os.Exit(1)
	}
}

func dump(path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	switch {
	case st.IsDir():
		if err := dumpSnapshot(path, ""); err != nil {
			return err
		}
		return journal.ReplayDir(path, printRecord)
	case strings.HasSuffix(path, ".snap"):
		return dumpSnapshot(filepath.Dir(path), filepath.Base(path))
	default:
		return journal.Replay(path, printRecord)
	}
}

// dumpSnapshot prints the newest snapshot in dir. A non-empty want names the
// snapshot file the user asked for, which must be that newest one.
func dumpSnapshot(dir, want string) error {
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
	fmt.Printf("%s watermark=%d entries=%d\n", name, snap.Watermark, len(snap.Entries))
	for _, e := range snap.Entries {
		fmt.Printf("  %s %s %s\n", e.Entity, e.UID, e.State)
	}
	return nil
}

func printRecord(rec journal.Record) error {
	desc, err := describe(rec.Data)
	if err != nil {
		return fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
	}
	fmt.Printf("%d %s %s\n", rec.Seq, rec.Type, desc)
	return nil
}

// describe decodes one frame by its frame-type byte. Durable broker records
// carry queue messages that are frames themselves, so those recurse.
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
	case msgcodec.FrameBrokerAck:
		v, err = msgcodec.DecodeBrokerAck(b)
	case msgcodec.FrameBrokerAckBatch:
		v, err = msgcodec.DecodeBrokerAckBatch(b)
	case msgcodec.FrameBrokerPublish:
		p, err := msgcodec.DecodeBrokerPublish(b)
		if err != nil {
			return "", err
		}
		body, err := describe(p.Body)
		return fmt.Sprintf("queue=%s id=%d %s", p.Queue, p.ID, body), err
	case msgcodec.FrameBrokerPublishBatch:
		p, err := msgcodec.DecodeBrokerPublishBatch(b)
		if err != nil {
			return "", err
		}
		out := "queue=" + p.Queue
		for _, m := range p.Msgs {
			body, err := describe(m.Body)
			if err != nil {
				return "", err
			}
			out += fmt.Sprintf(" id=%d %s", m.ID, body)
		}
		return out, nil
	default:
		return fmt.Sprintf("frame 0x%02x, %d bytes", t, len(b)), nil
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%+v", v), nil
}
