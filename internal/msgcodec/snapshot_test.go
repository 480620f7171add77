package msgcodec

import (
	"encoding/hex"
	"reflect"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	cases := []Snapshot{
		{},
		{Watermark: 1},
		{Watermark: 1 << 40, Entries: []SnapEntry{
			{Entity: "task", UID: "task.000.000.00001", State: "DONE"},
			{Entity: "stage", UID: "stage.000.000", State: "SCHEDULED"},
			{Entity: "pipeline", UID: "pipeline.000", State: "SCHEDULING"},
		}},
		{Watermark: 7, Entries: []SnapEntry{
			{Entity: "task", UID: `uid "quoted"`, State: "日本"},
		}},
	}
	for _, snap := range cases {
		got, err := DecodeSnapshot(FormatBinary.EncodeSnapshot(snap))
		if err != nil {
			t.Fatal(err)
		}
		if got.Watermark != snap.Watermark || len(got.Entries) != len(snap.Entries) ||
			(len(snap.Entries) > 0 && !reflect.DeepEqual(got.Entries, snap.Entries)) {
			t.Fatalf("got %+v want %+v", got, snap)
		}
	}
}

func TestSegmentHeaderRoundTrip(t *testing.T) {
	cases := []SegmentHeader{{}, {Index: 1, BaseSeq: 1}, {Index: 999999, BaseSeq: 1 << 50}}
	for _, h := range cases {
		got, err := DecodeSegmentHeader(FormatBinary.EncodeSegmentHeader(h))
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("got %+v want %+v", got, h)
		}
	}
}

// TestSnapshotEncodeAllocs pins the pooled-buffer property of the binary
// snapshot encoder: one allocation per encode (the returned copy).
func TestSnapshotEncodeAllocs(t *testing.T) {
	snap := Snapshot{Watermark: 99, Entries: make([]SnapEntry, 64)}
	for i := range snap.Entries {
		snap.Entries[i] = SnapEntry{Entity: "task", UID: "task.000.000.00042", State: "DONE"}
	}
	allocs := testing.AllocsPerRun(100, func() {
		FormatBinary.EncodeSnapshot(snap)
	})
	if allocs > 1 {
		t.Fatalf("EncodeSnapshot allocates %.1f times per call, want <= 1", allocs)
	}
}

// A hostile entry count must error instead of driving an allocation (the
// other foreign bodies are TestDecodersRejectForeignBodies' cases).
func TestSnapshotDecodeRejectsHostileCount(t *testing.T) {
	bad := []byte{Magic, Version, FrameSnapshot, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatalf("DecodeSnapshot(%x) accepted", bad)
	}
}

// The durable frames as the commit before the append forms existed wrote
// them (hex generated there): a state record, a snapshot, an empty snapshot.
const (
	goldenStateRec      = "bf0107047461736b0b7461736b2e30303030343204444f4e45"
	goldenSnapshot      = "bf0109e8070408706970656c696e650c706970656c696e652e3030300a5343484544554c494e470573746167650d73746167652e3030302e30303004444f4e45047461736b0b7461736b2e30303030343204444f4e45047461736b0b7461736b2e303030303433064641494c4544"
	goldenEmptySnapshot = "bf01090000"
)

// TestDurableFramesGoldenBytes holds what lands in journal segments and
// snapshot files to those bytes, through the one-shot encoders and through
// the append forms writing behind bytes already in the buffer.
func TestDurableFramesGoldenBytes(t *testing.T) {
	snap := Snapshot{Watermark: 1000, Entries: []SnapEntry{
		{Entity: "pipeline", UID: "pipeline.000", State: "SCHEDULING"},
		{Entity: "stage", UID: "stage.000.000", State: "DONE"},
		{Entity: "task", UID: "task.000042", State: "DONE"},
		{Entity: "task", UID: "task.000043", State: "FAILED"}}}
	prefix := []byte("already here")
	for _, c := range []struct {
		name, want string
		got        []byte
	}{
		{"EncodeStateRec", goldenStateRec, FormatBinary.EncodeStateRec("task", "task.000042", "DONE")},
		{"AppendStateRec", goldenStateRec, AppendStateRec(prefix, "task", "task.000042", "DONE")[len(prefix):]},
		{"EncodeSnapshot", goldenSnapshot, FormatBinary.EncodeSnapshot(snap)},
		{"AppendSnapshot", goldenSnapshot, AppendSnapshot(prefix, &snap)[len(prefix):]},
		{"EncodeSnapshot, empty", goldenEmptySnapshot, FormatBinary.EncodeSnapshot(Snapshot{})},
	} {
		if h := hex.EncodeToString(c.got); h != c.want {
			t.Errorf("%s changed the frame:\n got %s\nwant %s", c.name, h, c.want)
		}
	}
	if n := StateRecSize("task", "task.000042", "DONE"); n != len(goldenStateRec)/2 {
		t.Errorf("StateRecSize = %d, the record is %d bytes", n, len(goldenStateRec)/2)
	}
	if n := SnapshotSize(&snap); n != len(goldenSnapshot)/2 {
		t.Errorf("SnapshotSize = %d, the snapshot is %d bytes", n, len(goldenSnapshot)/2)
	}
}
