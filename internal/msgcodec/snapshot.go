package msgcodec

import "slices"

// ---- statedb snapshots ---------------------------------------------------

// SnapEntry is one entity's latest committed state inside a snapshot.
type SnapEntry struct {
	Entity string // "task" | "stage" | "pipeline"
	UID    string
	State  string
}

// Snapshot is the durable image of every entity's latest committed state as
// of journal sequence Watermark: replaying the snapshot and then the journal
// records with seq > Watermark reconstructs exactly the state an unbroken
// replay of the full journal would have produced — which is the invariant
// that makes compacting segments wholly below the watermark safe.
type Snapshot struct {
	Watermark uint64
	Entries   []SnapEntry
}

// SnapshotSize is the number of bytes AppendSnapshot appends for s.
func SnapshotSize(s *Snapshot) int {
	size := headerSize + uvarintLen(s.Watermark) + uvarintLen(uint64(len(s.Entries)))
	for i := range s.Entries {
		e := &s.Entries[i]
		size += sizeString(e.Entity) + sizeString(e.UID) + sizeString(e.State)
	}
	return size
}

// AppendSnapshot appends the encoded snapshot to dst. A writer that sizes dst
// first (SnapshotSize) and keeps it from one snapshot to the next encodes an
// image of any size without allocating.
func AppendSnapshot(dst []byte, s *Snapshot) []byte {
	dst = appendHeader(dst, FrameSnapshot)
	dst = appendUvarint(dst, s.Watermark)
	dst = appendUvarint(dst, uint64(len(s.Entries)))
	for i := range s.Entries {
		e := &s.Entries[i]
		dst = appendString(dst, e.Entity)
		dst = appendString(dst, e.UID)
		dst = appendString(dst, e.State)
	}
	return dst
}

// DecodeSnapshotInto decodes a snapshot over whatever s held, reusing
// s.Entries where it is large enough and taking every string the resolver
// knows from it (see DecodeSyncFrameInto): recovery loads an image of names
// the registry already holds. After an error s holds nothing meaningful.
func DecodeSnapshotInto(s *Snapshot, body []byte, resolve Resolve) error {
	r, err := frameReader(body, FrameSnapshot)
	if err != nil {
		return err
	}
	r.resolve = resolve
	if s.Watermark, err = r.uvarint(); err != nil {
		return err
	}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	s.Entries = slices.Grow(s.Entries[:0], n)[:n]
	for i := range s.Entries {
		e := &s.Entries[i] // may hold an earlier image's entry: every field is written
		if e.Entity, err = r.str(); err != nil {
			return err
		}
		if e.UID, err = r.str(); err != nil {
			return err
		}
		if e.State, err = r.str(); err != nil {
			return err
		}
	}
	return nil
}

// ---- journal segment headers ---------------------------------------------

// SegmentHeader is the payload of the first record of every journal
// segment: the segment's index (also encoded in its file name) and the
// journal sequence number of the header record itself. Replay uses it to
// sanity-label segments; recovery tooling uses it to tell where a segment
// sits in the sequence space without scanning the predecessor.
type SegmentHeader struct {
	Index   uint64
	BaseSeq uint64
}

// EncodeSegmentHeader encodes a segment header.
func (f Format) EncodeSegmentHeader(h SegmentHeader) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameSegmentHdr)
	buf = appendUvarint(buf, h.Index)
	buf = appendUvarint(buf, h.BaseSeq)
	return putBuf(bp, buf)
}

// DecodeSegmentHeader decodes a segment header.
func DecodeSegmentHeader(body []byte) (SegmentHeader, error) {
	var h SegmentHeader
	r, err := frameReader(body, FrameSegmentHdr)
	if err != nil {
		return SegmentHeader{}, err
	}
	if h.Index, err = r.uvarint(); err != nil {
		return SegmentHeader{}, err
	}
	if h.BaseSeq, err = r.uvarint(); err != nil {
		return SegmentHeader{}, err
	}
	return h, nil
}
