package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/msgcodec"
)

// scanUnbuffered is the scanner this package shipped before the buffered
// one: two reads per record straight from r, no read-ahead. It stays here as
// the reference FuzzScanFile and the torn-shape table compare scanRecords
// against — same records, same valid prefix, same error class.
func scanUnbuffered(r io.Reader, size int64, fn func(Record) error) (fileInfo, error) {
	var info fileInfo
	hdr := make([]byte, headerLen)
	for {
		if size-info.validLen < int64(headerLen) {
			return info, nil
		}
		if _, err := io.ReadFull(r, hdr); err != nil {
			return info, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || int64(n) > size-info.validLen-int64(headerLen) {
			return info, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return info, nil
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return info, nil
		}
		seq, recType, data, err := msgcodec.DecodeJournalRec(payload)
		if err != nil {
			return info, fmt.Errorf("%w: offset %d: %w", ErrUnknownFraming, info.validLen, err)
		}
		if err := fn(Record{Seq: seq, Type: string(recType), Data: data}); err != nil {
			return info, err
		}
		if info.firstSeq == 0 {
			info.firstSeq = seq
		}
		info.lastSeq = seq
		info.validLen += int64(headerLen) + int64(n)
	}
}

// chunkReader hands out at most n bytes per Read, so a small input crosses
// as many read-buffer refills as a large file does.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// diffScan runs data through scanRecords (refilling every chunk bytes; 0
// reads plainly) and through the unbuffered reference, and fails on any
// difference in records, valid prefix or error class.
func diffScan(t *testing.T, data []byte, chunk int) fileInfo {
	t.Helper()
	collect := func(into *[]Record) func(Record) error {
		return func(r Record) error {
			r.Data = bytes.Clone(r.Data) // borrowed from the scan's read buffer
			*into = append(*into, r)
			return nil
		}
	}
	var got, want []Record
	var r io.Reader = bytes.NewReader(data)
	if chunk > 0 {
		r = chunkReader{r, chunk}
	}
	gotInfo, gotErr := scanRecords(r, int64(len(data)), "fuzz", collect(&got))
	wantInfo, wantErr := scanUnbuffered(bytes.NewReader(data), int64(len(data)), collect(&want))
	if gotInfo != wantInfo {
		t.Fatalf("valid prefix %+v, reference %+v", gotInfo, wantInfo)
	}
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrUnknownFraming) != errors.Is(wantErr, ErrUnknownFraming) {
		t.Fatalf("error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, reference %d", len(got), len(want))
	}
	var held int64
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d = %+v, reference %+v", i, got[i], want[i])
		}
		held += int64(len(got[i].Data))
	}
	if gotInfo.validLen > int64(len(data)) || held > gotInfo.validLen {
		t.Fatalf("%d payload bytes in a %d-byte valid prefix of %d input bytes", held, gotInfo.validLen, len(data))
	}
	return gotInfo
}

// stateRecord frames one intact state record exactly as AppendRaw writes it.
func stateRecord(seq uint64, uid string) []byte {
	return frameRecord(msgcodec.AppendJournalRec(nil, seq, "state", msgcodec.FormatBinary.EncodeStateRec("task", uid, "DONE")))
}

// tornShapes are the ways a crash (or bit rot) can leave the bytes after the
// last intact record; each is built from rec, the record that was being
// written. Every one is a tail: the scan stops before it without an error.
var tornShapes = []struct {
	name string
	torn func(rec []byte) []byte
}{
	{"truncated header", func(rec []byte) []byte { return rec[:3] }},
	{"truncated payload", func(rec []byte) []byte { return rec[:len(rec)-5] }},
	{"garbage length", func(rec []byte) []byte {
		// A torn header claiming ~4 GiB: must not drive the allocation.
		out := append([]byte(nil), rec...)
		binary.LittleEndian.PutUint32(out[0:4], 0xfffffff0)
		return out
	}},
	{"crc flip", func(rec []byte) []byte {
		out := append([]byte(nil), rec...)
		out[len(out)-1] ^= 0xff
		return out
	}},
	{"zero fill", func([]byte) []byte { return make([]byte, 4096) }},
	{"empty payload, nonzero crc", func([]byte) []byte {
		hdr := make([]byte, headerLen)
		binary.LittleEndian.PutUint32(hdr[4:8], 0xdeadbeef)
		return hdr
	}},
	// A batch is one large write, and its pages can reach the disk out of
	// order: an intact record after a damaged one is still past the tail.
	{"hole before an intact record", func(rec []byte) []byte {
		return append(make([]byte, len(rec)), rec...)
	}},
	{"crc flip before an intact record", func(rec []byte) []byte {
		out := append(append([]byte(nil), rec...), rec...)
		out[len(rec)-1] ^= 0xff
		return out
	}},
}

// tornPlacements are the file offsets the torn record starts at: early in a
// short file, and on either side of the first read-buffer refill.
var tornPlacements = []struct {
	name  string
	start int64
}{
	{"short file", 256},
	{"header straddles the read buffer", scanBufSize - 4},
	{"payload straddles the read buffer", scanBufSize - headerLen - 8},
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// fillTo appends intact state records to j until the file at path is
// exactly target bytes long, and returns their UIDs in order.
func fillTo(t *testing.T, j *Journal, path string, target int64) []string {
	t.Helper()
	var uids []string
	uid := func(n int) string {
		s := fmt.Sprintf("t%d.", len(uids))
		if n < len(s) {
			return s[:n]
		}
		return s + strings.Repeat("x", n-len(s))
	}
	for {
		remaining := target - fileSize(t, path)
		if remaining == 0 {
			return uids
		}
		seq := j.Seq() + 1
		n := 1000 // a filler record, unless the target is within reach
		if remaining < 1200 {
			n = 1 // no exact fit (a varint grew): shift the target and retry
			for l := 1; l < 1200; l++ {
				if int64(len(stateRecord(seq, uid(l)))) == remaining {
					n = l
					break
				}
			}
			if int64(len(stateRecord(seq, uid(n)))) > remaining {
				t.Fatalf("cannot land on offset %d: %d bytes left", target, remaining)
			}
		}
		u := uid(n)
		appendState(t, j, u)
		uids = append(uids, u)
	}
}

func equalUIDs(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d state records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %.12q, want %.12q", what, i, got[i], want[i])
		}
	}
}

// TestReplayTornFinalRecordShapes is the torn-write sweep: every shape of
// torn or garbage tail, at every placement relative to the read buffer, as
// the final record of a flat journal and as the tail of a sealed segment
// with a live segment after it. The scan must recover everything before the
// tear, agree with the unbuffered reference, and allocate nothing the file
// does not hold; reopening truncates the tear only where appends go next.
func TestReplayTornFinalRecordShapes(t *testing.T) {
	rec := stateRecord(1<<20, "task.torn")
	for _, shape := range tornShapes {
		for _, at := range tornPlacements {
			torn := shape.torn(rec)
			t.Run(shape.name+"/"+at.name+"/flat", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "torn.journal")
				j, err := Open(path, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want := fillTo(t, j, path, at.start)
				last := j.Seq()
				j.Close()
				appendBytes(t, path, torn)

				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if info := diffScan(t, raw, 0); info.validLen != at.start || info.lastSeq != last {
					t.Fatalf("valid prefix %+v, want %d bytes ending at seq %d", info, at.start, last)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				var got []string
				err = Replay(path, func(r Record) error {
					sr, err := msgcodec.DecodeStateRec(r.Data)
					got = append(got, sr.UID)
					return err
				})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				equalUIDs(t, "Replay", got, want)
				if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(raw))+1<<20 {
					t.Fatalf("replaying %d bytes allocated %d", len(raw), grew)
				}

				j, err = Open(path, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				if size := fileSize(t, path); size != at.start {
					t.Fatalf("Open left %d bytes, want the tear truncated at %d", size, at.start)
				}
				if seq := appendState(t, j, "task.post"); seq != last+1 {
					t.Fatalf("post-recovery seq = %d, want %d", seq, last+1)
				}
			})
			t.Run(shape.name+"/"+at.name+"/sealed", func(t *testing.T) {
				dir := t.TempDir()
				sealed := filepath.Join(dir, SegmentName(1))
				// Rotation fires once the segment reaches SegmentBytes, so
				// filling it to exactly that seals it there.
				j, err := OpenDir(dir, Options{SegmentBytes: at.start})
				if err != nil {
					t.Fatal(err)
				}
				want := fillTo(t, j, sealed, at.start)
				sealedLast := j.Seq() - 1 // rotation gave segment 2's header the next seq
				want = append(want, "task.live.0", "task.live.1")
				appendState(t, j, "task.live.0")
				last := appendState(t, j, "task.live.1")
				if segs := j.Segments(); len(segs) != 2 {
					t.Fatalf("%d segments, want the sealed one and the live one", len(segs))
				}
				j.Close()
				appendBytes(t, sealed, torn)

				equalUIDs(t, "ReplayDir", stateUIDs(t, dir), want)
				segs, err := ListSegments(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(segs) != 2 || segs[0].Size != at.start || segs[0].LastSeq != sealedLast || segs[1].LastSeq != last {
					t.Fatalf("ListSegments = %+v, want segment 1 valid to byte %d / seq %d and segment 2 to seq %d",
						segs, at.start, sealedLast, last)
				}

				j, err = OpenDir(dir, Options{SegmentBytes: 1 << 20})
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				if size := fileSize(t, sealed); size != at.start+int64(len(torn)) {
					t.Fatalf("OpenDir resized the sealed segment to %d bytes", size)
				}
				if seq := appendState(t, j, "task.post"); seq != last+1 {
					t.Fatalf("post-recovery seq = %d, want %d", seq, last+1)
				}
				equalUIDs(t, "ReplayDir after reopen", stateUIDs(t, dir), append(want, "task.post"))
			})
		}
	}
}

// FuzzScanFile feeds arbitrary bytes to the buffered scanner, refilling its
// buffer at arbitrary points, and holds it to the unbuffered reference:
// same records, same valid prefix, same error class, no panic, and never a
// payload larger than the input.
func FuzzScanFile(f *testing.F) {
	var intact []byte
	for i := 1; i <= 3; i++ {
		intact = append(intact, stateRecord(uint64(i), uidN(i))...)
	}
	f.Add(intact, uint8(0))
	f.Add(intact, uint8(5))
	for _, shape := range tornShapes {
		f.Add(append(append([]byte(nil), intact...), shape.torn(stateRecord(4, "task.torn"))...), uint8(7))
	}
	f.Add(append(append([]byte(nil), intact...), frameRecord([]byte(`{"seq":4,"type":"state"}`))...), uint8(16))
	// One batch write cut inside its second and inside its last record.
	f.Add(intact[:len(intact)/2], uint8(3))
	f.Add(intact[:len(intact)-1], uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		diffScan(t, data, int(chunk))
	})
}

// faultReader fails with err once its budget of bytes is spent.
type faultReader struct {
	r      io.Reader
	budget int
	err    error
}

func (f *faultReader) Read(p []byte) (int, error) {
	if f.budget == 0 {
		return 0, f.err
	}
	if len(p) > f.budget {
		p = p[:f.budget]
	}
	n, err := f.r.Read(p)
	f.budget -= n
	return n, err
}

// TestReadErrorIsNotATornTail pins that a read failing mid-file fails the
// scan instead of ending it: Open and OpenDir must not truncate the records
// they could not read. Only running out of bytes (the file shrank under the
// scan) is a tail.
func TestReadErrorIsNotATornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eio.journal")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendState(t, j, uidN(i))
	}
	j.Close()
	size := fileSize(t, path)
	dir := t.TempDir()
	seg := filepath.Join(dir, SegmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	failWith := func(err error) {
		scanWrap = func(_ string, r io.Reader) io.Reader {
			return &faultReader{r: r, budget: int(size) / 2, err: err}
		}
	}
	t.Cleanup(func() { scanWrap = nil })

	failWith(syscall.EIO)
	seen := 0
	if err := Replay(path, func(Record) error { seen++; return nil }); !errors.Is(err, syscall.EIO) || seen >= 5 {
		t.Fatalf("Replay: err = %v after %d records, want EIO before the fifth", err, seen)
	}
	if j, err := Open(path, Options{}); !errors.Is(err, syscall.EIO) {
		if err == nil {
			j.Close()
		}
		t.Fatalf("Open: err = %v, want EIO", err)
	}
	if j, err := OpenDir(dir, Options{}); !errors.Is(err, syscall.EIO) {
		if err == nil {
			j.Close()
		}
		t.Fatalf("OpenDir: err = %v, want EIO", err)
	}
	if err := ReplayDir(dir, func(Record) error { return nil }); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReplayDir: err = %v, want EIO", err)
	}
	if _, err := ListSegments(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ListSegments: err = %v, want EIO", err)
	}
	for _, p := range []string{path, seg} {
		if got := fileSize(t, p); got != size {
			t.Fatalf("a failed open truncated %s: %d -> %d bytes", p, size, got)
		}
	}

	// The file ending before its stat'd size is the one read failure that
	// is a tail: the records before it replay and nothing errors.
	failWith(io.EOF)
	seen = 0
	if err := Replay(path, func(Record) error { seen++; return nil }); err != nil || seen == 0 || seen >= 5 {
		t.Fatalf("Replay of a shrunken file: err = %v after %d records", err, seen)
	}
}

// readCounter counts, per path, how often a scan opened the file and how
// many reads it issued.
type readCounter struct {
	mu    sync.Mutex
	opens map[string]int
	reads map[string]int
}

func newReadCounter() *readCounter {
	return &readCounter{opens: map[string]int{}, reads: map[string]int{}}
}

func (c *readCounter) wrap(path string, r io.Reader) io.Reader {
	c.mu.Lock()
	c.opens[path]++
	c.mu.Unlock()
	return readerFunc(func(p []byte) (int, error) {
		c.mu.Lock()
		c.reads[path]++
		c.mu.Unlock()
		return r.Read(p)
	})
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestScanReadsOncePerBuffer is the syscall-shape test: every entry point
// that walks a segment directory opens each segment once and reads it in
// buffer-sized pieces — at most ceil(size/scanBufSize)+1 reads per file —
// and an empty or missing file costs neither a read nor a buffer.
func TestScanReadsOncePerBuffer(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{SegmentBytes: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; len(j.Segments()) < 3 || i%100 != 0; i++ {
		appendState(t, j, strings.Repeat("x", 1000))
	}
	j.Close()
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("%d segments, want 3", len(segs))
	}
	t.Cleanup(func() { scanWrap = nil })

	walks := map[string]func() error{
		"ListSegments": func() error { _, err := ListSegments(dir); return err },
		"ReplayDir":    func() error { return ReplayDir(dir, func(Record) error { return nil }) },
		"OpenDirReplay": func() error {
			j, err := OpenDirReplay(dir, Options{}, 0, func(Record) error { return nil })
			if err == nil {
				err = j.Close()
			}
			return err
		},
	}
	for name, walk := range walks {
		c := newReadCounter()
		scanWrap = c.wrap
		if err := walk(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range segs {
			limit := int((s.Size+scanBufSize-1)/scanBufSize) + 1
			if c.opens[s.Path] != 1 || c.reads[s.Path] == 0 || c.reads[s.Path] > limit {
				t.Fatalf("%s: segment %d (%d bytes) opened %d times, %d reads; want once, 1..%d reads",
					name, s.Index, s.Size, c.opens[s.Path], c.reads[s.Path], limit)
			}
		}
	}

	c := newReadCounter()
	scanWrap = c.wrap
	empty := filepath.Join(t.TempDir(), "fresh.journal")
	if err := Replay(empty, func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Close()
	if len(c.opens) != 0 {
		t.Fatalf("a missing or empty file was read: %v", c.opens)
	}
}

// TestReplayDataIsBorrowed pins the Record.Data contract: a replayed record's
// payload lies in the scan's read buffer and is the callback's only until it
// returns. A callback that copies what it keeps sees every record intact; one
// that keeps Data itself finds later records written over it. A record larger
// than the read buffer takes the allocate path and replays beside the small
// ones, in order and intact.
func TestReplayDataIsBorrowed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "borrowed.journal")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n, big = 200, 77
	body := func(i int) []byte {
		if i == big {
			return bytes.Repeat([]byte{byte(i)}, scanBufSize+100)
		}
		return bytes.Repeat([]byte{byte(i)}, 16+i%32)
	}
	for i := 0; i < n; i++ {
		if _, err := j.AppendRaw("raw", body(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	var copied, kept [][]byte
	err = Replay(path, func(r Record) error {
		if i := len(copied); r.Seq != uint64(i+1) || r.Type != "raw" || !bytes.Equal(r.Data, body(i)) {
			t.Fatalf("record %d arrived as seq %d, type %q, %d bytes", i, r.Seq, r.Type, len(r.Data))
		}
		copied = append(copied, bytes.Clone(r.Data))
		kept = append(kept, r.Data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(copied) != n {
		t.Fatalf("replayed %d records, want %d", len(copied), n)
	}
	overwritten := 0
	for i := range copied {
		if !bytes.Equal(copied[i], body(i)) {
			t.Fatalf("the copy of record %d changed: % x", i, copied[i])
		}
		if !bytes.Equal(kept[i], body(i)) {
			overwritten++
		}
	}
	// Everything before the big record shared the buffer the big record's
	// successors were read into.
	if overwritten == 0 {
		t.Fatal("no retained Data was overwritten: records are not read in place")
	}
	if !bytes.Equal(kept[big], body(big)) {
		t.Fatal("the record larger than the read buffer did not get an allocation of its own")
	}
}
