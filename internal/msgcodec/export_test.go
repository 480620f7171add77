package msgcodec

// EncodeTaskUID encodes a single-task pending message.
func (f Format) EncodeTaskUID(uid string) []byte {
	return f.EncodeTaskUIDs([]string{uid})
}

// DecodePong decodes a keepalive reply.
func DecodePong(body []byte) (uint64, error) {
	r, err := frameReader(body, FramePong)
	if err != nil {
		return 0, err
	}
	return r.uvarint()
}

// EncodeSnapshot encodes a snapshot into a body of its own.
func (f Format) EncodeSnapshot(s Snapshot) []byte {
	return AppendSnapshot(make([]byte, 0, SnapshotSize(&s)), &s)
}

// DecodeSnapshot decodes a snapshot into a value of its own.
func DecodeSnapshot(body []byte) (Snapshot, error) {
	var s Snapshot
	if err := DecodeSnapshotInto(&s, body, nil); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}
