package msgcodec

import (
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
