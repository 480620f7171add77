package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/msgcodec"
)

// Segmented journals: the state journal of a crash-recoverable run is a
// directory of numbered segment files instead of one unbounded flat file.
// The active segment is rotated once it reaches Options.SegmentBytes, and
// Compact deletes sealed segments whose records all lie strictly below a
// snapshot watermark — the two halves of the "snapshot + journal tail"
// recovery story (docs/recovery.md). Every segment starts with a
// SegmentHeader record (msgcodec frame 0x0A) naming its index and base
// sequence.

// DefaultSegmentBytes is the rotation threshold used when
// Options.SegmentBytes is zero: large enough that steady-state runs rotate
// rarely, small enough that compaction reclaims space promptly.
const DefaultSegmentBytes = 4 << 20

// segPrefix/segSuffix define the segment file naming scheme,
// "journal-<index>.seg" with a fixed-width decimal index so lexical order
// equals numeric order (docs/wire-format.md).
const (
	segPrefix = "journal-"
	segSuffix = ".seg"
)

// segTypeName is the record type of segment header records.
const segTypeName = "segment"

// SegmentName returns the file name of segment index (1-based):
// journal-000001.seg.
func SegmentName(index uint64) string {
	return fmt.Sprintf("%s%06d%s", segPrefix, index, segSuffix)
}

// parseSegmentName extracts the index from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if len(name) <= len(segPrefix)+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix ||
		name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	digits := name[len(segPrefix) : len(name)-len(segSuffix)]
	var idx uint64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + uint64(c-'0')
	}
	return idx, true
}

// SegmentInfo describes one segment file of a segmented journal.
type SegmentInfo struct {
	Index uint64
	Path  string
	// FirstSeq and LastSeq bound the valid records in the segment
	// (including its header record); both are 0 for a segment holding no
	// valid record.
	FirstSeq uint64
	LastSeq  uint64
	// Size is the byte length of the segment's valid prefix.
	Size int64
}

// segmentFiles lists the segment files in dir in ascending index order,
// without reading them. A missing directory yields an empty list.
func segmentFiles(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: list segments: %w", err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		if idx, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			segs = append(segs, SegmentInfo{Index: idx, Path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].Index < segs[k].Index })
	return segs, nil
}

// scanSegments scans each segment once, in the order given, through fn,
// and records its valid sequence bounds and valid-prefix size.
func scanSegments(segs []SegmentInfo, fn func(Record) error) error {
	for i := range segs {
		info, err := scanFile(segs[i].Path, fn)
		if err != nil {
			return err
		}
		segs[i].FirstSeq, segs[i].LastSeq, segs[i].Size = info.firstSeq, info.lastSeq, info.validLen
	}
	return nil
}

// ListSegments scans dir and returns its journal segments in ascending
// index order, with each segment's valid sequence bounds. A missing
// directory yields an empty list.
func ListSegments(dir string) ([]SegmentInfo, error) {
	segs, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	if err := scanSegments(segs, nil); err != nil {
		return nil, err
	}
	return segs, nil
}

// OpenDir creates or opens the segmented journal in dir. Existing segments
// are preserved; the sequence counter resumes after the last valid record
// across all segments, and a torn tail in the active (newest) segment is
// truncated exactly as Open does for flat journals. A segment holding an
// intact record in a foreign framing fails the open with ErrUnknownFraming
// and truncates nothing. A fresh directory starts at segment 1.
func OpenDir(dir string, opts Options) (*Journal, error) {
	return OpenDirReplay(dir, opts, 0, nil)
}

// OpenDirReplay is OpenDir and ReplayDir in one walk, the recovery entry
// point: every segment is opened and read once, in ascending index order,
// each verified record is handed to fn (when non-nil) as ReplayDir would,
// and the journal comes back open for append after the last valid record.
// The active segment's torn tail is truncated only after every segment
// scanned clean and fn accepted every record; on any error nothing on disk
// has changed.
//
// floor is the highest sequence number something outside the segments
// already accounts for — the watermark of the snapshot recovery loaded.
// Records at or below it are verified like every other (a damaged one still
// ends its segment, a foreign one still fails the open) but not handed to fn:
// a segment compaction has not reached yet replays as nothing. The
// journal resumes at max(last valid record, floor): when compaction removed
// every segment below the watermark and the active segment lost its tail
// (or the directory holds no segment at all), numbering new records from the
// last surviving one would reuse sequence numbers the snapshot covers, and
// the next recovery would skip those records as already reflected.
func OpenDirReplay(dir string, opts Options, floor uint64, fn func(Record) error) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("journal: OpenDir requires a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: mkdir: %w", err)
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:      dir,
		sync:     opts.Sync,
		segBytes: opts.SegmentBytes,
		seq:      floor,
	}
	if j.segBytes <= 0 {
		j.segBytes = DefaultSegmentBytes
	}
	if deliver := fn; fn != nil {
		fn = func(rec Record) error {
			if rec.Seq <= floor {
				return nil
			}
			return deliver(rec)
		}
	}
	if len(segs) == 0 {
		if err := j.newSegmentLocked(1); err != nil {
			return nil, err
		}
		return j, nil
	}
	// The newest segment becomes the active one; every earlier segment is
	// sealed. The resume sequence is the max across all segments (the
	// active segment may hold no valid record after a torn-tail truncation)
	// and the floor.
	active := segs[len(segs)-1]
	j.sealed = segs[: len(segs)-1 : len(segs)-1]
	if err := scanSegments(j.sealed, fn); err != nil {
		return nil, err
	}
	f, info, err := openAppend(active.Path, fn)
	if err != nil {
		return nil, err
	}
	j.seq = max(j.seq, info.lastSeq)
	for _, s := range j.sealed {
		j.seq = max(j.seq, s.LastSeq)
	}
	j.setFile(f, active.Path)
	j.segIndex = active.Index
	j.segFirst = info.firstSeq
	j.size = info.validLen
	return j, nil
}

// newSegmentLocked creates segment file index and writes its header record;
// j.mu must be held (or the journal not yet shared).
func (j *Journal) newSegmentLocked(index uint64) error {
	path := filepath.Join(j.dir, SegmentName(index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: create segment: %w", err)
	}
	j.setFile(f, path)
	j.segIndex = index
	j.segFirst = 0
	j.size = 0
	hdr := msgcodec.FormatBinary.EncodeSegmentHeader(msgcodec.SegmentHeader{Index: index, BaseSeq: j.seq + 1})
	// Framed into its own buffer: a rotation runs in the middle of a batch
	// that owns the scratch.
	if err := j.writeLocked(appendFramed(nil, j.seq+1, segTypeName, hdr), 1); err != nil {
		f.Close()
		return err
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one; j.mu must
// be held.
func (j *Journal) rotateLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: rotate sync: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: rotate close: %w", err)
	}
	j.sealed = append(j.sealed, SegmentInfo{
		Index:    j.segIndex,
		Path:     j.path,
		FirstSeq: j.segFirst,
		LastSeq:  j.seq,
		Size:     j.size,
	})
	return j.newSegmentLocked(j.segIndex + 1)
}

// Segments returns the journal's segment layout — sealed segments plus the
// active one, ascending — for observability and tests. Flat journals return
// nil.
func (j *Journal) Segments() []SegmentInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dir == "" {
		return nil
	}
	out := make([]SegmentInfo, 0, len(j.sealed)+1)
	out = append(out, j.sealed...)
	out = append(out, SegmentInfo{
		Index:    j.segIndex,
		Path:     j.path,
		FirstSeq: j.segFirst,
		LastSeq:  j.seq,
		Size:     j.size,
	})
	return out
}

// Compact deletes sealed segments whose records all lie strictly below the
// snapshot watermark — records with seq < watermark are covered by the
// snapshot, so their segments are redundant for recovery. The invariant:
// a segment holding any record with seq >= watermark is never removed, and
// the active segment is never removed regardless of its contents. Returns
// the number of segments deleted. Compacting a flat (Open) journal is an
// error.
func (j *Journal) Compact(watermark uint64) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dir == "" {
		return 0, errors.New("journal: Compact requires a segmented journal (OpenDir)")
	}
	if j.closed {
		return 0, ErrClosed
	}
	removed := 0
	var firstErr error
	keep := make([]SegmentInfo, 0, len(j.sealed))
	for _, s := range j.sealed {
		if firstErr == nil && s.LastSeq > 0 && s.LastSeq < watermark {
			if err := os.Remove(s.Path); err != nil {
				firstErr = fmt.Errorf("journal: compact: %w", err)
				keep = append(keep, s)
				continue
			}
			removed++
			continue
		}
		keep = append(keep, s)
	}
	j.sealed = keep
	return removed, firstErr
}

// ReplayDir replays every valid record of the segmented journal in dir, in
// segment order — ascending index, records in file order within each
// segment — invoking fn for each, segment header records included (filter
// on Record.Type, as state recovery already does). Each segment is read
// once. Torn tails terminate the affected segment's replay, not the whole
// walk; a read error or ErrUnknownFraming fails it. A missing directory is a
// no-op.
func ReplayDir(dir string, fn func(Record) error) error {
	segs, err := segmentFiles(dir)
	if err != nil {
		return err
	}
	return scanSegments(segs, fn)
}
