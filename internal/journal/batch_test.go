package journal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/msgcodec"
)

// batchPayloads returns n state-record payloads of uneven sizes.
func batchPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		uid := fmt.Sprintf("task.%05d.%s", i, strings.Repeat("x", i%23))
		out[i] = msgcodec.FormatBinary.EncodeStateRec("task", uid, "DONE")
	}
	return out
}

// dirImage reads every segment file of dir, by name.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// sameLayout fails unless the two segment listings agree on everything but
// the directory they live in.
func sameLayout(t *testing.T, what string, got, want []SegmentInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.Path, w.Path = filepath.Base(g.Path), filepath.Base(w.Path)
		if g != w {
			t.Fatalf("%s: segment %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestBatchMatchesRecordAtATime pins AppendRawBatch's on-disk contract: the
// same records appended one at a time, as one batch, or as batches of any
// size leave byte-identical segment files with identical boundaries — with
// no rotation, with several rotations inside one batch, and with a segment
// threshold smaller than a single record.
func TestBatchMatchesRecordAtATime(t *testing.T) {
	payloads := batchPayloads(120)
	write := func(t *testing.T, segBytes int64, chunk int) (string, []SegmentInfo, []uint64) {
		t.Helper()
		dir := t.TempDir()
		j, err := OpenDir(dir, Options{SegmentBytes: segBytes})
		if err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		for at := 0; at < len(payloads); at += chunk {
			end := min(at+chunk, len(payloads))
			var seq uint64
			if chunk == 1 {
				seq, err = j.AppendRaw("state", payloads[at])
			} else {
				seq, err = j.AppendRawBatch("state", payloads[at:end])
			}
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, seq)
		}
		live := j.Segments()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, live, seqs
	}
	for _, segBytes := range []int64{1 << 20, 700, 16} {
		t.Run(fmt.Sprintf("segment-%d", segBytes), func(t *testing.T) {
			refDir, refLive, refSeqs := write(t, segBytes, 1)
			refFiles := dirImage(t, refDir)
			refList, err := ListSegments(refDir)
			if err != nil {
				t.Fatal(err)
			}
			if segBytes < 1<<20 && len(refList) < 3 {
				t.Fatalf("%d segments at a %d-byte threshold, want rotations", len(refList), segBytes)
			}
			for _, chunk := range []int{len(payloads), 7, 2} {
				dir, live, seqs := write(t, segBytes, chunk)
				what := fmt.Sprintf("batches of %d", chunk)
				files := dirImage(t, dir)
				if len(files) != len(refFiles) {
					t.Fatalf("%s: %d files, want %d", what, len(files), len(refFiles))
				}
				for name, want := range refFiles {
					if !bytes.Equal(files[name], want) {
						t.Fatalf("%s: %s differs from record-at-a-time appends (%d vs %d bytes)",
							what, name, len(files[name]), len(want))
					}
				}
				list, err := ListSegments(dir)
				if err != nil {
					t.Fatal(err)
				}
				sameLayout(t, what+": ListSegments", list, refList)
				sameLayout(t, what+": Segments", live, refLive)
				// A batch returns what the append of its last record returned.
				for i, seq := range seqs {
					if want := refSeqs[min((i+1)*chunk, len(payloads))-1]; seq != want {
						t.Fatalf("%s: batch %d returned seq %d, want %d", what, i, seq, want)
					}
				}
			}
		})
	}

	// An empty batch appends nothing and reports where the journal stands.
	j, err := Open(tmpJournal(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendState(t, j, "task.one")
	if seq, err := j.AppendRawBatch("state", nil); err != nil || seq != 1 {
		t.Fatalf("empty batch = seq %d, err %v; want 1, nil", seq, err)
	}
	if size := fileSize(t, j.Path()); size != int64(len(stateRecord(1, "task.one"))) {
		t.Fatalf("an empty batch grew the file to %d bytes", size)
	}
}

// TestBatchTornAtEveryOffset cuts a journal at every byte of a batch write
// — a crash can stop a large write anywhere — and requires recovery to keep
// exactly the whole records before the cut: the scan agrees with the
// unbuffered reference, Replay yields those records, and Open truncates to
// the record boundary and numbers on from there.
func TestBatchTornAtEveryOffset(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendState(t, j, "task.before.0")
	appendState(t, j, "task.before.1")
	base := fileSize(t, path)
	payloads := batchPayloads(12)
	if _, err := j.AppendRawBatch("state", payloads); err != nil {
		t.Fatal(err)
	}
	j.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the file offset just past the batch's i-th record.
	var ends []int64
	at := base
	for i, p := range payloads {
		at += int64(headerLen + msgcodec.JournalRecSize(uint64(3+i), "state", p))
		ends = append(ends, at)
	}
	if at != int64(len(whole)) {
		t.Fatalf("batch records end at %d, file is %d bytes", at, len(whole))
	}

	cutPath := filepath.Join(t.TempDir(), "cut.journal")
	for cut := base; cut <= int64(len(whole)); cut++ {
		kept := 0
		for kept < len(ends) && ends[kept] <= cut {
			kept++
		}
		validLen := base
		if kept > 0 {
			validLen = ends[kept-1]
		}
		if info := diffScan(t, whole[:cut], 5); info.validLen != validLen || info.lastSeq != uint64(2+kept) {
			t.Fatalf("cut at %d: valid prefix %+v, want %d bytes ending at seq %d", cut, info, validLen, 2+kept)
		}
		if err := os.WriteFile(cutPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		if err := Replay(cutPath, func(r Record) error { got = append(got, r.Data); return nil }); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(got) != 2+kept {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), 2+kept)
		}
		for i, data := range got[2:] {
			if !bytes.Equal(data, payloads[i]) {
				t.Fatalf("cut at %d: batch record %d came back changed", cut, i)
			}
		}
		j, err := Open(cutPath, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if size := fileSize(t, cutPath); size != validLen {
			t.Fatalf("cut at %d: Open left %d bytes, want %d", cut, size, validLen)
		}
		seq := appendState(t, j, "task.after")
		j.Close()
		if seq != uint64(3+kept) {
			t.Fatalf("cut at %d: next seq %d, want %d", cut, seq, 3+kept)
		}
	}
}

// TestAppendAllocs pins the append path's allocation contract: AppendRaw,
// now the batch of one, still allocates nothing once the scratch buffer is
// warm, and a batch that fits the retained scratch allocates nothing either.
func TestAppendAllocs(t *testing.T) {
	j, err := Open(tmpJournal(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	payloads := batchPayloads(64)
	appendOne := func() {
		if _, err := j.AppendRaw("state", payloads[0]); err != nil {
			t.Fatal(err)
		}
	}
	appendBatch := func() {
		if _, err := j.AppendRawBatch("state", payloads); err != nil {
			t.Fatal(err)
		}
	}
	appendBatch() // warm the scratch to the larger of the two
	if n := testing.AllocsPerRun(200, appendOne); n != 0 {
		t.Fatalf("AppendRaw: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, appendBatch); n != 0 {
		t.Fatalf("AppendRawBatch of 64: %.1f allocs/op, want 0", n)
	}
}

// writeCounter counts, per path, the writes a journal issued.
type writeCounter map[string]int

func (c writeCounter) wrap(path string, w io.Writer) io.Writer {
	return writerFunc(func(p []byte) (int, error) {
		c[path]++
		return w.Write(p)
	})
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestBatchWritesOncePerSegment is the write-side syscall-shape test: a
// batch costs one write, plus one per segment boundary it crosses (and the
// new segment's header), never one per record; an oversized batch does not
// leave its buffer pinned.
func TestBatchWritesOncePerSegment(t *testing.T) {
	c := writeCounter{}
	writeWrap = c.wrap
	t.Cleanup(func() { writeWrap = nil })
	total := func() int {
		n := 0
		for _, v := range c {
			n += v
		}
		return n
	}

	flat, err := Open(tmpJournal(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if _, err := flat.AppendRawBatch("state", batchPayloads(5000)); err != nil {
		t.Fatal(err)
	}
	if total() != 1 {
		t.Fatalf("a 5000-record batch into a flat journal took %d writes, want 1", total())
	}
	if flat.buf != nil {
		t.Fatalf("a %d-byte scratch outlived its batch (limit %d)", cap(flat.buf), MaxRetainedScratch)
	}

	clear(c)
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.AppendRawBatch("state", batchPayloads(1000)); err != nil {
		t.Fatal(err)
	}
	segs := j.Segments()
	if len(segs) < 5 {
		t.Fatalf("%d segments, want the batch to cross several", len(segs))
	}
	for _, s := range segs[:len(segs)-1] {
		if c[s.Path] != 2 {
			t.Fatalf("segment %d took %d writes, want 2 (its header, its share of the batch)", s.Index, c[s.Path])
		}
	}
	if n := c[segs[len(segs)-1].Path]; n < 1 || n > 2 {
		t.Fatalf("the active segment took %d writes, want 1 or 2", n)
	}
}
