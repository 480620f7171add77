package msgcodec

import (
	"reflect"
	"testing"
)

func TestDaemonSubmitRoundTrip(t *testing.T) {
	in := DaemonSubmit{Tenant: "alice", Journal: true, AppJSON: []byte(`{"pipelines":[]}`)}
	out, err := DecodeDaemonSubmit(FormatBinary.EncodeDaemonSubmit(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Tenant != in.Tenant || out.Journal != in.Journal || string(out.AppJSON) != string(in.AppJSON) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestRunOpRoundTrip(t *testing.T) {
	cases := []RunOp{
		{Op: "submit-ack", RunID: "run.0001", OK: true},
		{Op: "event", RunID: "run.0002", OK: true,
			Strs: []string{"task", "task.000.000.00001", "t1", "p1", "s1", "SCHEDULED", "DONE"},
			Ints: []int64{123456789, 2}},
		{Op: "list", Err: "boom", Data: []byte{0x00, 0xff}},
		{Op: "end"},
	}
	for _, in := range cases {
		out, err := DecodeRunOp(FormatBinary.EncodeRunOp(in))
		if err != nil {
			t.Fatalf("decode %q: %v", in.Op, err)
		}
		// An empty Data field decodes as an empty, non-nil slice.
		if len(out.Data) == 0 {
			out.Data = nil
		}
		want := in
		if len(want.Data) == 0 {
			want.Data = nil
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("round trip %q: %+v != %+v", in.Op, out, want)
		}
	}
}
