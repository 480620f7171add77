package msgcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// ---- binary primitives ---------------------------------------------------
//
// Fields are varints (unsigned for counts/sequence numbers, zigzag for
// signed values), length-prefixed byte strings, single-byte booleans and a
// flagged varint for timestamps (so the zero time round-trips exactly).

var errTruncated = errors.New("msgcodec: truncated frame")

func appendHeader(buf []byte, typ byte) []byte {
	return append(buf, Magic, Version, typ)
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = appendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// appendTime encodes a timestamp as a zero flag plus Unix nanoseconds. The
// zero time gets its own flag because time.Time{}.UnixNano() does not
// round-trip.
func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return appendVarint(buf, t.UnixNano())
}

// The encoders of the three frames whose size follows the batch — task UIDs,
// sync frames, result batches — add up their fields first (the size* helpers
// mirror the append* ones) and append into a body made once at that size. The
// pooled scratch the other encoders share is dropped by every second GC cycle,
// so a stage-wide frame regrew it to hundreds of kilobytes, doubling by
// doubling, and then copied it out.

const headerSize = 3 // appendHeader

func sizeString(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// sizeStrings is a count followed by that many strings.
func sizeStrings(ss []string) int {
	size := uvarintLen(uint64(len(ss)))
	for _, s := range ss {
		size += sizeString(s)
	}
	return size
}

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func sizeTime(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + varintLen(t.UnixNano())
}

// Resolve maps the bytes of one decoded string field to a string the caller
// already holds — a registry's own copy of a task UID, an entity kind, a
// state name — so that decoding a frame full of known names allocates no
// string per name. It returns "" for bytes it does not know. b aliases the
// frame body and must not be retained. A decoder uses the result only when it
// is byte-equal to b and makes its own copy otherwise, so whatever a resolver
// returns, the decoded value is what the frame says.
type Resolve func(b []byte) string

// reader walks a binary frame payload with exhaustive bounds checking: a
// malformed or truncated frame yields an error from every method, never a
// panic (FuzzDecodeFrame pins this). resolve, when set, is consulted for
// every string field. shared, when set, is the whole frame converted to a
// string once (share): every string field the resolver does not supply is
// then a substring of it rather than a copy of its own, so a frame of n
// fields costs one allocation instead of n — and stays reachable until the
// last of those fields is dropped.
type reader struct {
	b       []byte
	resolve Resolve
	shared  string
}

// share switches the reader to shared-string mode. body must be the frame r
// was positioned in by frameReader, with r.b still a suffix of it.
func (r *reader) share(body []byte) { r.shared = string(body) }

// frameReader validates the three-byte header and positions a reader at the
// payload.
func frameReader(body []byte, want byte) (reader, error) {
	if len(body) < 3 {
		return reader{}, errTruncated
	}
	if body[0] != Magic {
		return reader{}, fmt.Errorf("msgcodec: bad magic byte 0x%02x", body[0])
	}
	if body[1] == 0 || body[1] > Version {
		return reader{}, fmt.Errorf("msgcodec: unsupported wire version %d (this build speaks <= %d)", body[1], Version)
	}
	if body[2] != want {
		return reader{}, fmt.Errorf("msgcodec: frame type 0x%02x, want 0x%02x", body[2], want)
	}
	return reader{b: body[3:]}, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, errTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

// count reads an element count. minSize is the fewest bytes one element can
// encode to: a count the remaining bytes cannot hold is an error, so a
// hostile length prefix cannot drive an allocation larger than a small
// multiple of the frame that carries it.
func (r *reader) count(minSize int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)/minSize) {
		return 0, fmt.Errorf("msgcodec: %d elements of at least %d bytes exceed remaining frame (%d bytes)", v, minSize, len(r.b))
	}
	return int(v), nil
}

// bytes returns the next length-prefixed field, aliasing the frame.
func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, errTruncated
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *reader) str() (string, error) {
	b, err := r.bytes()
	if err != nil || len(b) == 0 {
		return "", err
	}
	if r.resolve != nil {
		// The comparison converts nothing: the compiler compares in place.
		if s := r.resolve(b); s == string(b) {
			return s, nil
		}
	}
	if r.shared != "" {
		// b was just consumed, so it ends where the unread suffix begins.
		end := len(r.shared) - len(r.b)
		return r.shared[end-len(b) : end], nil
	}
	return string(b), nil
}

func (r *reader) bool() (bool, error) {
	if len(r.b) < 1 {
		return false, errTruncated
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0, nil
}

func (r *reader) time() (time.Time, error) {
	set, err := r.bool()
	if err != nil || !set {
		return time.Time{}, err
	}
	ns, err := r.varint()
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(0, ns), nil
}

// ---- synchronizer transition frames -------------------------------------

// SyncRequest asks the Synchronizer for one state transition — of a single
// entity, or (UIDs) the same transition applied to a batch of entities in
// one request, EnTK's bulk state updates.
type SyncRequest struct {
	Entity string // "task" | "stage" | "pipeline"
	UID    string
	UIDs   []string
	Target string
	// Result metadata piggybacked on task transitions.
	ExitCode int
	ExecErr  string
}

// SyncFrame carries one component's transition requests to the Synchronizer
// in a single message with a single acknowledgement. Batching requests into
// one frame is what turns a stage's synchronization traffic from O(tasks)
// round-trips into O(1): a 64-task stage schedules with one frame holding
// its stage and bulk-task transitions.
type SyncFrame struct {
	Reply string // ack queue
	Seq   uint64
	Reqs  []SyncRequest
}

// SyncAck is the Synchronizer's acknowledgement of one frame: OK when every
// request committed (or was absorbed as a documented no-op), otherwise the
// first failure.
type SyncAck struct {
	Seq uint64
	OK  bool
	Err string
}

// EncodeSyncFrame encodes a transition frame. A frame names a whole stage's
// tasks, twice, so its body is sized first and written once (see sizeString).
func (f Format) EncodeSyncFrame(fr SyncFrame) ([]byte, error) {
	size := headerSize + sizeString(fr.Reply) + uvarintLen(fr.Seq) + uvarintLen(uint64(len(fr.Reqs)))
	for i := range fr.Reqs {
		req := &fr.Reqs[i]
		size += sizeString(req.Entity) + sizeString(req.Target) + sizeString(req.UID) +
			sizeStrings(req.UIDs) + varintLen(int64(req.ExitCode)) + sizeString(req.ExecErr)
	}
	buf := make([]byte, 0, size)
	buf = appendHeader(buf, FrameSyncFrame)
	buf = appendString(buf, fr.Reply)
	buf = appendUvarint(buf, fr.Seq)
	buf = appendUvarint(buf, uint64(len(fr.Reqs)))
	for i := range fr.Reqs {
		req := &fr.Reqs[i]
		buf = appendString(buf, req.Entity)
		buf = appendString(buf, req.Target)
		buf = appendString(buf, req.UID)
		buf = appendUvarint(buf, uint64(len(req.UIDs)))
		for _, uid := range req.UIDs {
			buf = appendString(buf, uid)
		}
		buf = appendVarint(buf, int64(req.ExitCode))
		buf = appendString(buf, req.ExecErr)
	}
	return buf, nil
}

// DecodeSyncFrame decodes a transition frame into a value of its own.
func DecodeSyncFrame(body []byte) (SyncFrame, error) {
	var fr SyncFrame
	if err := DecodeSyncFrameInto(&fr, body, nil); err != nil {
		return SyncFrame{}, err
	}
	return fr, nil
}

// DecodeSyncFrameInto decodes a transition frame over whatever fr held,
// reusing fr.Reqs and each request's UIDs where they are large enough, so a
// receiver that decodes every frame into the one SyncFrame it owns allocates
// nothing once that has grown to its traffic. Every string the resolver knows
// (entity kinds, state names, UIDs, the reply queue) is taken from it instead
// of being copied out of the body; a nil resolver copies everything. After an
// error fr holds nothing meaningful.
func DecodeSyncFrameInto(fr *SyncFrame, body []byte, resolve Resolve) error {
	r, err := frameReader(body, FrameSyncFrame)
	if err != nil {
		return err
	}
	r.resolve = resolve
	if fr.Reply, err = r.str(); err != nil {
		return err
	}
	if fr.Seq, err = r.uvarint(); err != nil {
		return err
	}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	if n > cap(fr.Reqs) {
		fr.Reqs = make([]SyncRequest, n)
	}
	fr.Reqs = fr.Reqs[:n]
	for i := range fr.Reqs {
		req := &fr.Reqs[i] // may hold an earlier frame's request: every field is written
		if req.Entity, err = r.str(); err != nil {
			return err
		}
		if req.Target, err = r.str(); err != nil {
			return err
		}
		if req.UID, err = r.str(); err != nil {
			return err
		}
		m, err := r.count(1)
		if err != nil {
			return err
		}
		if m > cap(req.UIDs) {
			req.UIDs = make([]string, m)
		}
		req.UIDs = req.UIDs[:m]
		for k := range req.UIDs {
			if req.UIDs[k], err = r.str(); err != nil {
				return err
			}
		}
		ec, err := r.varint()
		if err != nil {
			return err
		}
		req.ExitCode = int(ec)
		if req.ExecErr, err = r.str(); err != nil {
			return err
		}
	}
	return nil
}

// EncodeSyncAck encodes an acknowledgement.
func (f Format) EncodeSyncAck(ack SyncAck) ([]byte, error) {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameSyncAck)
	buf = appendUvarint(buf, ack.Seq)
	buf = appendBool(buf, ack.OK)
	buf = appendString(buf, ack.Err)
	return putBuf(bp, buf), nil
}

// DecodeSyncAck decodes an acknowledgement.
func DecodeSyncAck(body []byte) (SyncAck, error) {
	var ack SyncAck
	r, err := frameReader(body, FrameSyncAck)
	if err != nil {
		return SyncAck{}, err
	}
	if ack.Seq, err = r.uvarint(); err != nil {
		return SyncAck{}, err
	}
	if ack.OK, err = r.bool(); err != nil {
		return SyncAck{}, err
	}
	if ack.Err, err = r.str(); err != nil {
		return SyncAck{}, err
	}
	return ack, nil
}

// ---- done-queue task-result batches -------------------------------------

// TaskResult is the RTS's report of one finished task attempt, as carried
// on the done queue.
type TaskResult struct {
	UID      string
	ExitCode int
	// Error is the failure's text. It is empty when ExitCode is 0: what a
	// successful executable printed is not reported.
	Error    string
	Canceled bool
	// Started and Finished bound the executable's run (virtual time).
	Started  time.Time
	Finished time.Time
	// StagingTime is the virtual time spent staging this task's data.
	StagingTime time.Duration
}

// EncodeTaskResults encodes a done-queue result batch, sized first and
// written once (see sizeString).
func (f Format) EncodeTaskResults(rs []TaskResult) ([]byte, error) {
	size := headerSize + uvarintLen(uint64(len(rs)))
	for i := range rs {
		res := &rs[i]
		size += sizeString(res.UID) + varintLen(int64(res.ExitCode)) + sizeString(res.Error) + 1 +
			sizeTime(res.Started) + sizeTime(res.Finished) + varintLen(int64(res.StagingTime))
	}
	buf := make([]byte, 0, size)
	buf = appendHeader(buf, FrameTaskResults)
	buf = appendUvarint(buf, uint64(len(rs)))
	for i := range rs {
		res := &rs[i]
		buf = appendString(buf, res.UID)
		buf = appendVarint(buf, int64(res.ExitCode))
		buf = appendString(buf, res.Error)
		buf = appendBool(buf, res.Canceled)
		buf = appendTime(buf, res.Started)
		buf = appendTime(buf, res.Finished)
		buf = appendVarint(buf, int64(res.StagingTime))
	}
	return buf, nil
}

// minTaskResultSize is what a zero TaskResult encodes to: two empty strings,
// two varints, a bool and two zero-time flags.
const minTaskResultSize = 7

// DecodeTaskResults decodes a done-queue result batch into a slice of its own.
func DecodeTaskResults(body []byte) ([]TaskResult, error) { return AppendTaskResults(nil, body, nil) }

// AppendTaskResults decodes a done-queue result batch onto dst — a receiver
// that passes the buffer it owns, emptied, allocates nothing once it has
// grown — taking the task UIDs the resolver knows from it (see
// DecodeSyncFrameInto). After an error the returned slice is dst unextended.
func AppendTaskResults(dst []TaskResult, body []byte, resolve Resolve) ([]TaskResult, error) {
	r, err := frameReader(body, FrameTaskResults)
	if err != nil {
		return dst, err
	}
	r.resolve = resolve
	return r.taskResults(dst)
}

// DecodeTaskResultsShared decodes a result batch for a receiver that holds
// no registry to resolve against: the frame is copied into one string and
// every UID and error text is a substring of it, so the batch costs two
// allocations whatever its size. The results do not alias body.
func DecodeTaskResultsShared(body []byte) ([]TaskResult, error) {
	r, err := frameReader(body, FrameTaskResults)
	if err != nil {
		return nil, err
	}
	r.share(body)
	return r.taskResults(nil)
}

func (r *reader) taskResults(dst []TaskResult) ([]TaskResult, error) {
	n, err := r.count(minTaskResultSize)
	if err != nil {
		return dst, err
	}
	first := len(dst)
	rs := slices.Grow(dst, n)[:first+n]
	for i := first; i < len(rs); i++ {
		res := &rs[i] // may hold an earlier batch's result: every field is written
		if res.UID, err = r.str(); err != nil {
			return dst, err
		}
		ec, err := r.varint()
		if err != nil {
			return dst, err
		}
		res.ExitCode = int(ec)
		if res.Error, err = r.str(); err != nil {
			return dst, err
		}
		if res.Canceled, err = r.bool(); err != nil {
			return dst, err
		}
		if res.Started, err = r.time(); err != nil {
			return dst, err
		}
		if res.Finished, err = r.time(); err != nil {
			return dst, err
		}
		st, err := r.varint()
		if err != nil {
			return dst, err
		}
		res.StagingTime = time.Duration(st)
	}
	return rs, nil
}

// ---- Fig 6 prototype task bodies ----------------------------------------

// Fig6Task is the task object the Fig 6 prototype benchmark pushes through
// the queues, shaped like an EnTK task description.
type Fig6Task struct {
	UID        string
	Executable string
	Arguments  []string
	Cores      int
}

// EncodeFig6Task encodes one prototype task body.
func (f Format) EncodeFig6Task(t *Fig6Task) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameFig6Task)
	buf = appendString(buf, t.UID)
	buf = appendString(buf, t.Executable)
	buf = appendUvarint(buf, uint64(len(t.Arguments)))
	for _, a := range t.Arguments {
		buf = appendString(buf, a)
	}
	buf = appendVarint(buf, int64(t.Cores))
	return putBuf(bp, buf)
}

// DecodeFig6Task decodes one prototype task body into t.
func DecodeFig6Task(body []byte, t *Fig6Task) error {
	r, err := frameReader(body, FrameFig6Task)
	if err != nil {
		return err
	}
	if t.UID, err = r.str(); err != nil {
		return err
	}
	if t.Executable, err = r.str(); err != nil {
		return err
	}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	t.Arguments = nil
	if n > 0 {
		t.Arguments = make([]string, n)
		for i := range t.Arguments {
			if t.Arguments[i], err = r.str(); err != nil {
				return err
			}
		}
	}
	c, err := r.varint()
	if err != nil {
		return err
	}
	t.Cores = int(c)
	return nil
}

// ---- journaled state-transition records ---------------------------------

// StateRec is the journal payload of one committed state transition.
type StateRec struct {
	Entity string
	UID    string
	State  string
}

// AppendStateRec appends one encoded state record to dst. The committer
// encodes a request's records one after another into the buffer it owns, so
// a journaled transition costs its bytes and no allocation.
func AppendStateRec(dst []byte, entity, uid, state string) []byte {
	dst = appendHeader(dst, FrameStateRec)
	dst = appendString(dst, entity)
	dst = appendString(dst, uid)
	return appendString(dst, state)
}

// StateRecSize is the number of bytes AppendStateRec appends for these
// arguments.
func StateRecSize(entity, uid, state string) int {
	return headerSize + sizeString(entity) + sizeString(uid) + sizeString(state)
}

// EncodeStateRec encodes one state record into a body of its own.
func (f Format) EncodeStateRec(entity, uid, state string) []byte {
	return AppendStateRec(make([]byte, 0, StateRecSize(entity, uid, state)), entity, uid, state)
}

// DecodeStateRec decodes a state record, copying its strings out of body.
func DecodeStateRec(body []byte) (StateRec, error) { return DecodeStateRecWith(body, nil) }

// DecodeStateRecWith decodes a state record, taking every string the resolver
// knows from it (see DecodeSyncFrameInto): recovery replays a journal of
// names the registry already holds.
func DecodeStateRecWith(body []byte, resolve Resolve) (StateRec, error) {
	var sr StateRec
	r, err := frameReader(body, FrameStateRec)
	if err != nil {
		return StateRec{}, err
	}
	r.resolve = resolve
	if sr.Entity, err = r.str(); err != nil {
		return StateRec{}, err
	}
	if sr.UID, err = r.str(); err != nil {
		return StateRec{}, err
	}
	if sr.State, err = r.str(); err != nil {
		return StateRec{}, err
	}
	return sr, nil
}

// ---- journaled RTS task-store audit records -----------------------------

// StoreRec is the journal payload of one RTS task-store operation: one
// record per Push or Pull batch, covering every task the call moved.
type StoreRec struct {
	UIDs []string
	Op   string // "push" | "pull"
}

// EncodeStoreRec encodes one store audit record.
func (f Format) EncodeStoreRec(op string, uids []string) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameStoreRec)
	buf = appendString(buf, op)
	buf = appendUvarint(buf, uint64(len(uids)))
	for _, uid := range uids {
		buf = appendString(buf, uid)
	}
	return putBuf(bp, buf)
}

// DecodeStoreRec decodes a store audit record.
func DecodeStoreRec(body []byte) (StoreRec, error) {
	var sr StoreRec
	r, err := frameReader(body, FrameStoreRec)
	if err != nil {
		return StoreRec{}, err
	}
	if sr.Op, err = r.str(); err != nil {
		return StoreRec{}, err
	}
	n, err := r.count(1)
	if err != nil {
		return StoreRec{}, err
	}
	if n > 0 {
		sr.UIDs = make([]string, n)
		for i := range sr.UIDs {
			if sr.UIDs[i], err = r.str(); err != nil {
				return StoreRec{}, err
			}
		}
	}
	return sr, nil
}

// ---- journal record framing ---------------------------------------------

// AppendJournalRec appends the binary framing of one journal record
// (sequence number, type, opaque payload) to dst and returns the extended
// slice. The journal owns the destination buffer, so the append itself
// allocates nothing in steady state.
func AppendJournalRec(dst []byte, seq uint64, recType string, data []byte) []byte {
	dst = appendHeader(dst, FrameJournalRec)
	dst = appendUvarint(dst, seq)
	dst = appendString(dst, recType)
	return appendBytes(dst, data)
}

// JournalRecSize returns the number of bytes AppendJournalRec appends for
// these arguments, so a caller framing many records can size its buffer once.
func JournalRecSize(seq uint64, recType string, data []byte) int {
	return 3 + uvarintLen(seq) +
		uvarintLen(uint64(len(recType))) + len(recType) +
		uvarintLen(uint64(len(data))) + len(data)
}

// uvarintLen is the encoded length of v as an unsigned varint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// DecodeJournalRec decodes a binary journal record. recType and data alias
// payload: a scan reads the type of every record and keeps almost none, so
// whoever needs it as a string makes it one.
func DecodeJournalRec(payload []byte) (seq uint64, recType, data []byte, err error) {
	r, err := frameReader(payload, FrameJournalRec)
	if err != nil {
		return 0, nil, nil, err
	}
	if seq, err = r.uvarint(); err != nil {
		return 0, nil, nil, err
	}
	if recType, err = r.bytes(); err != nil {
		return 0, nil, nil, err
	}
	if data, err = r.bytes(); err != nil {
		return 0, nil, nil, err
	}
	return seq, recType, data, nil
}
