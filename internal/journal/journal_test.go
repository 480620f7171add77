package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/msgcodec"
)

type payload struct {
	Name  string
	Value int
}

// put appends p as a state-record frame: the journal's payloads are opaque
// msgcodec frames, so the tests use a real one.
func put(j *Journal, recType string, p payload) (uint64, error) {
	return j.AppendRaw(recType, msgcodec.FormatBinary.EncodeStateRec("p", p.Name, strconv.Itoa(p.Value)))
}

// get decodes a record written by put.
func get(rec Record) (payload, error) {
	sr, err := msgcodec.DecodeStateRec(rec.Data)
	if err != nil {
		return payload{}, err
	}
	v, err := strconv.Atoi(sr.State)
	return payload{Name: sr.UID, Value: v}, err
}

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.journal")
}

func TestAppendAndReplay(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		seq, err := put(j, "task.state", payload{Name: fmt.Sprintf("t%d", i), Value: i})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var got []payload
	err = Replay(path, func(rec Record) error {
		if rec.Type != "task.state" {
			t.Fatalf("unexpected type %q", rec.Type)
		}
		p, err := get(rec)
		if err != nil {
			return err
		}
		got = append(got, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, p := range got {
		if p.Value != i {
			t.Fatalf("record %d has value %d", i, p.Value)
		}
	}
}

func TestReplayMissingFileIsNoop(t *testing.T) {
	err := Replay(filepath.Join(t.TempDir(), "absent.journal"), func(Record) error {
		t.Fatal("callback invoked for missing file")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReopenResumesSequence(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := put(j, "a", payload{Value: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := put(j, "a", payload{Value: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	seq, err := put(j2, "a", payload{Value: 3})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("resumed seq = %d, want 3", seq)
	}
}

func TestTornTailIsDiscarded(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := put(j, "x", payload{Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate a crash mid-append: truncate the file inside the last record.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	var count int
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", count)
	}

	// Reopening must resume at seq 4 and append cleanly.
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	seq, err := put(j2, "x", payload{Value: 99})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Fatalf("post-recovery seq = %d, want 5", seq)
	}
	count = 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("replayed %d records after recovery append, want 5", count)
	}
}

func TestCorruptedPayloadStopsReplay(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := put(j, "x", payload{Value: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := put(j, "x", payload{Value: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Flip a byte inside the second record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var count int
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d records with corrupt tail, want 1", count)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := put(j, "x", payload{}); err != ErrClosed {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := put(j, "c", payload{Name: fmt.Sprintf("w%d", w), Value: i}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()

	var count int
	seqs := map[uint64]bool{}
	err = Replay(path, func(rec Record) error {
		count++
		if seqs[rec.Seq] {
			t.Fatalf("duplicate seq %d", rec.Seq)
		}
		seqs[rec.Seq] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != writers*perWriter {
		t.Fatalf("replayed %d, want %d", count, writers*perWriter)
	}
}

// Property: any sequence of appended payloads replays back identically, in
// order, regardless of content.
func TestRoundTripProperty(t *testing.T) {
	f := func(values []int32, names []string) bool {
		path := filepath.Join(t.TempDir(), "prop.journal")
		j, err := Open(path, Options{})
		if err != nil {
			return false
		}
		var want []payload
		for i, v := range values {
			name := "n"
			if i < len(names) {
				name = names[i]
			}
			p := payload{Name: name, Value: int(v)}
			want = append(want, p)
			if _, err := put(j, "p", p); err != nil {
				return false
			}
		}
		j.Close()
		var got []payload
		if err := Replay(path, func(rec Record) error {
			p, err := get(rec)
			if err != nil {
				return err
			}
			got = append(got, p)
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// frameRecord wraps payload in the journal's length + CRC record header.
func frameRecord(payload []byte) []byte {
	buf := make([]byte, headerLen, headerLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// TestUnknownFramingIsAnError pins that a record which is intact on disk
// (length and CRC match) but not decodable by this build — the retired JSON
// record document, or a frame from a newer wire version — fails Open and
// Replay with ErrUnknownFraming and leaves the file untouched, instead of
// being truncated away as if it were a torn tail.
func TestUnknownFramingIsAnError(t *testing.T) {
	newer := msgcodec.AppendJournalRec(nil, 3, "state", []byte("x"))
	newer[1] = msgcodec.Version + 1
	foreign := map[string][]byte{
		"json record":   []byte(`{"seq":3,"type":"state","data":{"entity":"task","uid":"t.3","state":"DONE"}}`),
		"newer version": newer,
	}
	for name, body := range foreign {
		t.Run(name, func(t *testing.T) {
			path := tmpJournal(t)
			j, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := put(j, "x", payload{Value: i}); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()
			appendBytes(t, path, frameRecord(body))
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}

			count := 0
			err = Replay(path, func(Record) error { count++; return nil })
			if !errors.Is(err, ErrUnknownFraming) || count != 2 {
				t.Fatalf("Replay: err = %v after %d records, want ErrUnknownFraming after 2", err, count)
			}
			if j, err := Open(path, Options{}); !errors.Is(err, ErrUnknownFraming) {
				if err == nil {
					j.Close()
				}
				t.Fatalf("Open: err = %v, want ErrUnknownFraming", err)
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != before.Size() {
				t.Fatalf("Open changed the file: %d -> %d bytes", before.Size(), after.Size())
			}

			// The same record in a segment directory fails OpenDir and ReplayDir.
			dir := t.TempDir()
			seg := filepath.Join(dir, SegmentName(1))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if j, err := OpenDir(dir, Options{}); !errors.Is(err, ErrUnknownFraming) {
				if err == nil {
					j.Close()
				}
				t.Fatalf("OpenDir: err = %v, want ErrUnknownFraming", err)
			}
			if err := ReplayDir(dir, func(Record) error { return nil }); !errors.Is(err, ErrUnknownFraming) {
				t.Fatalf("ReplayDir: err = %v, want ErrUnknownFraming", err)
			}
			if fi, err := os.Stat(seg); err != nil || fi.Size() != before.Size() {
				t.Fatalf("OpenDir changed the segment: %v, %v", fi, err)
			}
		})
	}
}
