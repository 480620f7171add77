// Package journal implements the append-only transactional log that backs
// EnTK's fault-tolerance guarantees (paper §II-B4: "All state updates in EnTK
// are transactional ... EnTK can reacquire upon restarting information about
// the state of the execution up to the latest successful transaction").
//
// The journal substitutes both RabbitMQ's message durability and the external
// database the paper mentions as a hook. Records are length-prefixed and
// CRC-protected so a partially written trailing record (a crash mid-append)
// is detected and discarded during replay instead of corrupting recovery.
// Record payloads use the msgcodec framing (one pooled buffer on the append
// path). A record that is intact on disk but not in that framing — written
// by a newer build, or a leftover of the retired JSON format — is
// ErrUnknownFraming, never a torn tail: the journal refuses to open rather
// than truncate records it cannot read.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/msgcodec"
)

// Record is a single journal entry. Type namespaces the payload (for example
// "state" or "rts.store"); Seq is assigned by the journal and is
// strictly increasing within a file. Data holds the record's opaque payload,
// by convention a msgcodec frame matching Type. A replayed record's Data is
// borrowed: it points into the scan's read buffer, is valid only until the
// callback returns, and the next record overwrites it — a callback that keeps
// the payload, or anything decoded from it that aliases it, copies it.
type Record struct {
	Seq  uint64
	Type string
	Data []byte
}

// Journal is an append-only, crash-consistent record log. It is safe for
// concurrent use. A journal opened with Open writes one flat file; one
// opened with OpenDir writes numbered segment files, rolled to the next at
// every snapshot watermark (Roll) and compacted below it (Compact).
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	w      io.Writer // f, or a test's wrapper around it (writeWrap)
	path   string
	seq    uint64
	sync   bool
	buf    []byte // scratch for header + payload, reused under mu
	closed bool
	broken error // set when a failed write could not be cut back off the file

	// Segmented (OpenDir) state. dir is empty for flat journals.
	dir      string
	segIndex uint64        // index of the active segment
	size     int64         // bytes in the active segment (the file, if flat)
	sealed   []SegmentInfo // closed segments, ascending index
}

// Options configure journal behaviour.
type Options struct {
	// Sync forces an fsync after every append. Slower, but a crash loses at
	// most the record being written. Off by default: the OS flushes on close.
	Sync bool
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrUnknownFraming reports a record whose length and CRC are intact but
// whose payload is not a msgcodec journal frame this build can decode. Open,
// OpenDir, Replay and ReplayDir return it (wrapping the msgcodec error)
// without truncating anything.
var ErrUnknownFraming = errors.New("journal: unknown record framing")

const headerLen = 4 + 4 // payload length + CRC32 of payload

// MaxRetainedScratch bounds a per-request scratch buffer kept across
// requests — the journal's own framing buffer, and the committer's record
// buffer in front of it: one oversized batch (a wide stage's bulk commit)
// must not pin its buffer for the run's lifetime.
const MaxRetainedScratch = 64 << 10

// Open creates or opens the journal file at path for appending. Existing
// records are preserved; the sequence counter resumes after the last valid
// record and a torn tail is truncated. A read error or an intact record in a
// foreign framing fails the open and truncates nothing.
func Open(path string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: mkdir: %w", err)
	}
	f, info, err := openAppend(path, nil)
	if err != nil {
		return nil, err
	}
	j := &Journal{seq: info.lastSeq, sync: opts.Sync, size: info.validLen}
	j.setFile(f, path)
	return j, nil
}

// writeWrap, when non-nil, wraps the writer of every file a journal appends
// to. Only tests set it, to count writes and to fail them.
var writeWrap func(path string, w io.Writer) io.Writer

// setFile makes f, the file at path, the one appends go to.
func (j *Journal) setFile(f *os.File, path string) {
	j.f, j.w, j.path = f, f, path
	if writeWrap != nil {
		j.w = writeWrap(path, f)
	}
}

// openAppend opens (creating it if missing) the journal file at path, scans
// it once through fn, truncates the torn tail and leaves the file positioned
// for appending after its last valid record. Nothing is truncated unless the
// whole scan succeeded.
func openAppend(path string, fn func(Record) error) (*os.File, fileInfo, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fileInfo{}, fmt.Errorf("journal: open: %w", err)
	}
	info, err := scanOpen(f, fn)
	if err == nil {
		if err = f.Truncate(info.validLen); err != nil {
			err = fmt.Errorf("journal: truncate torn tail: %w", err)
		} else if _, err = f.Seek(info.validLen, io.SeekStart); err != nil {
			err = fmt.Errorf("journal: seek: %w", err)
		}
	}
	if err != nil {
		f.Close()
		return nil, info, err
	}
	return f, info, nil
}

// fileInfo summarizes one journal file's valid prefix.
type fileInfo struct {
	lastSeq  uint64 // 0 when the file holds no valid record
	validLen int64
}

// scanBufSize caps the read buffer one file scan allocates (a smaller file
// gets a buffer its own size): a scan costs ceil(size/scanBufSize) reads
// instead of two per record.
const scanBufSize = 64 << 10

// scanWrap, when non-nil, wraps the reader of every file a scan opens. Only
// tests set it, to count opens and reads and to inject read errors.
var scanWrap func(path string, r io.Reader) io.Reader

// scanFile scans the journal file at path (see scanRecords). A missing file
// is an empty one.
func scanFile(path string, fn func(Record) error) (fileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fileInfo{}, nil
		}
		return fileInfo{}, fmt.Errorf("journal: scan: %w", err)
	}
	defer f.Close()
	return scanOpen(f, fn)
}

// scanOpen scans the open journal file f from its start. An empty file costs
// no read and no buffer.
func scanOpen(f *os.File, fn func(Record) error) (fileInfo, error) {
	st, err := f.Stat()
	if err != nil {
		return fileInfo{}, fmt.Errorf("journal: scan: %w", err)
	}
	if st.Size() == 0 {
		return fileInfo{}, nil
	}
	var r io.Reader = f
	if scanWrap != nil {
		r = scanWrap(f.Name(), r)
	}
	return scanRecords(r, st.Size(), f.Name(), fn)
}

// scanRecords walks the size bytes of journal file r (path names it in
// errors) through one read buffer of at most scanBufSize, invoking fn (when non-nil)
// for every valid record, and returns the file's valid-prefix summary. A
// record is verified and decoded where it lies in the read buffer, and that
// is what fn sees (Record.Data is borrowed); only a record larger than the
// buffer gets an allocation of its own. A
// torn tail — truncated header, truncated payload, a length field pointing
// past the end of the file (a crash can tear the header itself, leaving
// garbage bytes where the length lives), a CRC mismatch or an empty payload
// (a zero-filled header checksums correctly) — terminates the walk at the
// last valid record instead of failing it. The length field is validated
// against the bytes actually remaining before anything is sized by it, so a
// garbage length can never drive a multi-gigabyte allocation. A non-empty
// payload that passes its CRC but does not decode was written whole by
// something else: that is ErrUnknownFraming. A read that fails with anything
// but end-of-file (the file shrank under the scan) is an error, never a
// tail: the caller must not truncate records it could not read. fn errors
// propagate.
func scanRecords(r io.Reader, size int64, path string, fn func(Record) error) (fileInfo, error) {
	var info fileInfo
	br := bufio.NewReaderSize(r, int(min(size, scanBufSize)))
	// A file's records are nearly all of one type: the string made for one
	// record serves every following record that names the same type.
	var recType string
	for {
		if size-info.validLen < int64(headerLen) {
			return info, nil // clean EOF or torn header: stop here
		}
		hdr, err := br.Peek(headerLen)
		if err != nil {
			return info, tailOrReadError(path, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || int64(n) > size-info.validLen-int64(headerLen) {
			return info, nil // zero-filled, torn or garbage length: treat as tail
		}
		var payload []byte
		whole := headerLen + int(n)
		inPlace := whole <= br.Size()
		if inPlace {
			rec, err := br.Peek(whole) // may move the header: hdr is dead from here
			if err != nil {
				return info, tailOrReadError(path, err)
			}
			payload = rec[headerLen:]
		} else {
			br.Discard(headerLen) //nolint:errcheck // just peeked
			payload = make([]byte, n)
			if _, err := io.ReadFull(br, payload); err != nil {
				return info, tailOrReadError(path, err)
			}
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return info, nil // corrupted record: treat as tail
		}
		seq, typ, data, err := msgcodec.DecodeJournalRec(payload)
		if err != nil {
			return info, fmt.Errorf("%w: %s at offset %d: %w", ErrUnknownFraming, path, info.validLen, err)
		}
		if fn != nil {
			if recType != string(typ) { // compared in place: no conversion
				recType = string(typ)
			}
			if err := fn(Record{Seq: seq, Type: recType, Data: data}); err != nil {
				return info, err
			}
		}
		if inPlace {
			br.Discard(whole) //nolint:errcheck // peeked whole above
		}
		info.lastSeq = seq
		info.validLen += int64(headerLen) + int64(n)
	}
}

// tailOrReadError classifies a failed read inside the stat'd size: running
// out of bytes means the file shrank under the scan, which is a torn tail;
// anything else (EIO, a closed descriptor) is a real error.
func tailOrReadError(path string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return fmt.Errorf("journal: scan %s: %w", path, err)
}

// AppendRaw appends a record of the given type whose payload the caller has
// already encoded (a msgcodec frame), returning the assigned sequence
// number. It is AppendRawBatch of one payload: the record framing reuses the
// journal's scratch buffer, so the append allocates nothing.
func (j *Journal) AppendRaw(recType string, data []byte) (uint64, error) {
	return j.AppendRawBatch(recType, [][]byte{data})
}

// AppendRawBatch appends one record of the given type per payload, in order,
// numbered consecutively, and returns the sequence number of the last one
// (the journal's current sequence for an empty batch). The whole batch is
// framed into the scratch buffer and handed to the file in one write — one
// fsync under Options.Sync — so the file is byte for byte what appending the
// same records one at a time leaves. On an error the failed write leaves none
// of its bytes behind.
func (j *Journal) AppendRawBatch(recType string, payloads [][]byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if j.broken != nil {
		return 0, j.broken
	}
	// Size the scratch once for the whole batch; sizing every record as if
	// it carried the batch's highest sequence bounds the varints.
	n := uint64(len(payloads))
	need, last := 0, j.seq+n
	for _, data := range payloads {
		need += headerLen + msgcodec.JournalRecSize(last, recType, data)
	}
	buf := slices.Grow(j.buf[:0], need)
	for i, data := range payloads {
		buf = appendFramed(buf, j.seq+uint64(i)+1, recType, data)
	}
	if cap(buf) <= MaxRetainedScratch {
		j.buf = buf
	} else {
		j.buf = nil
	}
	if err := j.writeLocked(buf, n); err != nil {
		return 0, err
	}
	return last, nil
}

// appendFramed appends one record — [len][crc32][msgcodec journal frame] —
// to buf.
func appendFramed(buf []byte, seq uint64, recType string, data []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = msgcodec.AppendJournalRec(buf, seq, recType, data)
	payload := buf[start+headerLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// writeLocked hands buf — n whole framed records numbered from j.seq+1 — to
// the active file in one write; j.mu must be held. A write that fails part-way
// (a full disk) leaves a torn batch in the file, and every later record would
// lie behind it, out of any scan's reach: the file is cut back to its last
// whole record, and if that fails too the journal refuses further appends.
func (j *Journal) writeLocked(buf []byte, n uint64) error {
	if n == 0 {
		return nil
	}
	if _, err := j.w.Write(buf); err != nil {
		cerr := j.f.Truncate(j.size)
		if cerr == nil {
			_, cerr = j.f.Seek(j.size, io.SeekStart)
		}
		if cerr != nil {
			j.broken = fmt.Errorf("journal: cut back a failed write: %w", cerr)
		}
		return fmt.Errorf("journal: write: %w", err)
	}
	j.seq += n
	j.size += int64(len(buf))
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	return nil
}

// Seq returns the sequence number of the most recently appended record.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Replay reads every valid record in the journal at path, in order, invoking
// fn for each. A zero-length, torn or corrupted tail (including a torn header
// whose length field is garbage) terminates replay silently at the last
// valid record, matching crash-recovery semantics; a read error, or an
// intact record in a foreign framing (ErrUnknownFraming), fails it. Replay
// of a non-existent file is a no-op.
func Replay(path string, fn func(Record) error) error {
	_, err := scanFile(path, fn)
	return err
}
