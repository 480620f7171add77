package journal

import "io"

// SetScanWrap installs the scan hook for tests outside the package (the
// Resume shape test drives the whole stack) and returns the call that
// removes it.
func SetScanWrap(wrap func(path string, r io.Reader) io.Reader) (restore func()) {
	scanWrap = wrap
	return func() { scanWrap = nil }
}

// SetWriteWrap installs the append hook for tests outside the package (the
// commit-cost test drives a whole durable run) and returns the call that
// removes it.
func SetWriteWrap(wrap func(path string, w io.Writer) io.Writer) (restore func()) {
	writeWrap = wrap
	return func() { writeWrap = nil }
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Segments returns the journal's segment layout — sealed segments plus the
// active one, ascending. Flat journals return nil.
func (j *Journal) Segments() []SegmentInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dir == "" {
		return nil
	}
	out := make([]SegmentInfo, 0, len(j.sealed)+1)
	out = append(out, j.sealed...)
	out = append(out, SegmentInfo{
		Index:   j.segIndex,
		Path:    j.path,
		LastSeq: j.seq,
		Size:    j.size,
	})
	return out
}

// FirstSeq is the seq of the first valid record of the journal file at path,
// 0 when it holds none.
func FirstSeq(path string) (uint64, error) {
	var first uint64
	_, err := scanFile(path, func(r Record) error {
		if first == 0 {
			first = r.Seq
		}
		return nil
	})
	return first, err
}
