// Package msgcodec implements the versioned wire-format layer for every
// steady-state control-plane message in the stack: pending-queue task-UID
// batches, synchronizer transition frames and acks, done-queue task-result
// batches, Fig 6 prototype task bodies, journal record framing and the
// broker's durability records.
//
// There is one format. Every message is framed as
//
//	[magic 0xBF] [version] [frame type] [typed payload]
//
// with varint/length-prefixed fields and pooled scratch buffers, so the
// steady-state cost of an encode is one allocation — the exact-size body —
// regardless of batch width. Decoders reject any body that does not start
// with the magic byte, carries a newer version or is of another frame type;
// cmd/entk-dump prints frames, journals and snapshots for inspection. See
// docs/wire-format.md for the layout and compatibility rules.
package msgcodec

import (
	"slices"
	"sync"
)

// Magic is the first byte of every frame. It can never begin a text
// document (0xBF is a UTF-8 continuation byte), so foreign bodies are
// rejected on their first byte.
const Magic byte = 0xBF

// Version is the current binary wire-format version, written as the second
// byte of every frame. Decoders reject frames with a newer version instead
// of misparsing them.
const Version byte = 1

// Frame types, written as the third byte of every binary frame. A decoder
// for one message type rejects frames of another instead of misparsing.
const (
	FrameTaskUIDs    byte = 0x01 // pending-queue task-UID batch
	FrameSyncFrame   byte = 0x02 // synchronizer transition-request frame
	FrameSyncAck     byte = 0x03 // synchronizer acknowledgement
	FrameTaskResults byte = 0x04 // done-queue task-result batch
	FrameFig6Task    byte = 0x05 // Fig 6 prototype task body
	FrameJournalRec  byte = 0x06 // journal record framing
	FrameStateRec    byte = 0x07 // journaled state-transition record
	FrameStoreRec    byte = 0x08 // journaled RTS task-store audit record
	FrameSnapshot    byte = 0x09 // statedb snapshot (watermark + latest states)
	FrameSegmentHdr  byte = 0x0A // journal segment header record

	FrameBrokerPublish      byte = 0x10 // durable-queue publish record
	FrameBrokerAck          byte = 0x11 // durable-queue ack record
	FrameBrokerPublishBatch byte = 0x12 // durable-queue batched publish record
	FrameBrokerAckBatch     byte = 0x13 // durable-queue batched ack record

	FrameDaemonSubmit byte = 0x20 // entkd submission request
	FrameDaemonRunOp  byte = 0x21 // entkd run operation (request and response)

	// Remote control-plane frames (the transport links between a manager,
	// its entk-agent processes and remote event subscribers). They never
	// land in journals or durable queues (docs/wire-format.md, "Remote
	// frames").
	FramePing       byte = 0x30 // transport keepalive probe
	FramePong       byte = 0x31 // transport keepalive reply
	FrameHello      byte = 0x32 // connection handshake (role, name, capacity)
	FrameTaskBatch  byte = 0x33 // manager -> agent task-description batch
	FrameAgentStats byte = 0x34 // agent -> manager liveness + utilization report
	FrameAttach     byte = 0x35 // event-subscriber handshake (filter)
	FrameEventBatch byte = 0x36 // event server -> subscriber event batch
	FrameEventEnd   byte = 0x37 // event stream end (final drop count)
)

// FrameType returns the frame-type byte of a frame body, or false for bodies
// without the magic byte and fragments too short to carry a header.
// Connection loops use it to route an incoming frame to its decoder.
func FrameType(body []byte) (byte, bool) {
	if len(body) < 3 || body[0] != Magic {
		return 0, false
	}
	return body[2], true
}

// Format is the receiver of the message encoders. It has one value: the
// control plane speaks exactly one encoding.
type Format uint8

// FormatBinary is the versioned binary framing.
const FormatBinary Format = 0

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getBuf returns a pooled scratch buffer, truncated to zero length.
func getBuf() (*[]byte, []byte) {
	bp := bufPool.Get().(*[]byte)
	return bp, (*bp)[:0]
}

// putBuf returns the (exact-size copy of the) encoded buffer and recycles
// the scratch. All encoders end here: one allocation per message, the body
// itself, because the broker retains message bodies.
func putBuf(bp *[]byte, buf []byte) []byte {
	out := make([]byte, len(buf))
	copy(out, buf)
	*bp = buf
	bufPool.Put(bp)
	return out
}

// ---- pending-queue task-UID batches -------------------------------------

// EncodeTaskUIDs encodes a pending-queue message for the given task UIDs,
// sized first and written once (see sizeString).
func (f Format) EncodeTaskUIDs(uids []string) []byte {
	buf := make([]byte, 0, headerSize+sizeStrings(uids))
	buf = appendHeader(buf, FrameTaskUIDs)
	buf = appendUvarint(buf, uint64(len(uids)))
	for _, uid := range uids {
		buf = appendString(buf, uid)
	}
	return buf
}

// EncodeTaskUID encodes a single-task pending message.
func (f Format) EncodeTaskUID(uid string) []byte {
	return f.EncodeTaskUIDs([]string{uid})
}

// DecodeTaskUIDs decodes a pending-queue message body into a slice of its own.
func DecodeTaskUIDs(body []byte) ([]string, error) { return AppendTaskUIDs(nil, body, nil) }

// AppendTaskUIDs decodes a pending-queue message body onto dst — a receiver
// that passes the buffer it owns, emptied, allocates nothing once it has
// grown — taking the task UIDs the resolver knows from it (see
// DecodeSyncFrameInto). After an error the returned slice is dst unextended.
func AppendTaskUIDs(dst []string, body []byte, resolve Resolve) ([]string, error) {
	r, err := frameReader(body, FrameTaskUIDs)
	if err != nil {
		return dst, err
	}
	r.resolve = resolve
	n, err := r.count(1)
	if err != nil {
		return dst, err
	}
	first := len(dst)
	uids := slices.Grow(dst, n)[:first+n]
	for i := first; i < len(uids); i++ {
		if uids[i], err = r.str(); err != nil {
			return dst, err
		}
	}
	return uids, nil
}
