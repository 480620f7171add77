package msgcodec

import (
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{},
		{"task.000001"},
		{"task.000001", "task.000002", "task.000003"},
		{"task.recov.a", "task.recov.flaky"},
		// Length-prefixed strings are opaque: quotes, backslashes, control
		// chars, non-ASCII and invalid UTF-8 round-trip byte for byte.
		{`task."quoted"`, `back\slash`, "tab\there", "unicode-日本語", "bad\xff utf8"},
	}
	for _, uids := range cases {
		got, err := DecodeTaskUIDs(FormatBinary.EncodeTaskUIDs(uids))
		if err != nil {
			t.Fatalf("round trip %q: %v", uids, err)
		}
		if len(got) != len(uids) || (len(uids) > 0 && !reflect.DeepEqual(got, uids)) {
			t.Fatalf("round trip %q: got %q", uids, got)
		}
	}
}

func TestEncodeSingle(t *testing.T) {
	got, err := DecodeTaskUIDs(FormatBinary.EncodeTaskUID("task.42"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "task.42" {
		t.Fatalf("got %q", got)
	}
}

func TestSyncFrameRoundTrip(t *testing.T) {
	frames := []SyncFrame{
		{Reply: "sync-ack-enq", Seq: 7, Reqs: []SyncRequest{
			{Entity: "stage", UID: "stage.0001", Target: "SCHEDULING"},
			{Entity: "task", UIDs: []string{"t.1", "t.2", "t.3"}, Target: "SCHEDULING"},
			{Entity: "task", UIDs: []string{"t.1", "t.2", "t.3"}, Target: "SCHEDULED"},
		}},
		{Reply: "sync-ack-deq", Seq: 1, Reqs: []SyncRequest{
			{Entity: "task", UID: "t.9", Target: "EXECUTED", ExitCode: -1, ExecErr: "rts failure"},
		}},
		{Reply: "q", Seq: 0, Reqs: []SyncRequest{}},
	}
	for _, fr := range frames {
		body, err := FormatBinary.EncodeSyncFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSyncFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Reply != fr.Reply || got.Seq != fr.Seq || len(got.Reqs) != len(fr.Reqs) {
			t.Fatalf("frame header drifted: %+v vs %+v", got, fr)
		}
		for i := range fr.Reqs {
			if !reflect.DeepEqual(got.Reqs[i], fr.Reqs[i]) {
				t.Fatalf("req %d: got %+v want %+v", i, got.Reqs[i], fr.Reqs[i])
			}
		}
	}
}

func TestSyncAckRoundTrip(t *testing.T) {
	acks := []SyncAck{
		{Seq: 42, OK: true},
		{Seq: 1, OK: false, Err: "core: unknown task t.404"},
	}
	for _, ack := range acks {
		body, err := FormatBinary.EncodeSyncAck(ack)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSyncAck(body)
		if err != nil {
			t.Fatal(err)
		}
		if got != ack {
			t.Fatalf("got %+v want %+v", got, ack)
		}
	}
}

func TestTaskResultsRoundTrip(t *testing.T) {
	now := time.Unix(0, time.Now().UnixNano())
	batches := [][]TaskResult{
		nil,
		{{UID: "t.1", ExitCode: 0, Started: now, Finished: now.Add(time.Second), StagingTime: 3 * time.Millisecond}},
		{
			{UID: "t.2", ExitCode: 137, Error: "oom"},
			{UID: "t.3", Canceled: true},
		},
	}
	for _, rs := range batches {
		body, err := FormatBinary.EncodeTaskResults(rs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeTaskResults(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rs) {
			t.Fatalf("got %d results want %d", len(got), len(rs))
		}
		for i := range rs {
			g, w := got[i], rs[i]
			if g.UID != w.UID || g.ExitCode != w.ExitCode || g.Error != w.Error ||
				g.Canceled != w.Canceled || !g.Started.Equal(w.Started) ||
				!g.Finished.Equal(w.Finished) || g.StagingTime != w.StagingTime {
				t.Fatalf("result %d: got %+v want %+v", i, g, w)
			}
		}
	}
}

func TestFig6TaskRoundTrip(t *testing.T) {
	tasks := []Fig6Task{
		{UID: "task.000001.000002", Executable: "sleep", Arguments: []string{"0"}, Cores: 1},
		{UID: "t", Executable: "md run", Arguments: nil, Cores: 128},
		{UID: `q"uote`, Executable: "x", Arguments: []string{"a", "日本"}, Cores: 0},
	}
	for _, task := range tasks {
		var got Fig6Task
		if err := DecodeFig6Task(FormatBinary.EncodeFig6Task(&task), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, task) {
			t.Fatalf("got %+v want %+v", got, task)
		}
	}
}

func TestStateRecRoundTrip(t *testing.T) {
	body := FormatBinary.EncodeStateRec("task", "task.0042", "DONE")
	got, err := DecodeStateRec(body)
	if err != nil {
		t.Fatal(err)
	}
	want := StateRec{Entity: "task", UID: "task.0042", State: "DONE"}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestStoreRecRoundTrip(t *testing.T) {
	cases := []StoreRec{
		{Op: "push", UIDs: []string{"task.000001"}},
		{Op: "pull", UIDs: []string{"task.000001", "task.000002", "task.000003"}},
		{Op: "push", UIDs: nil},
		{Op: "pull", UIDs: []string{`uid "quoted"`, "日本"}},
	}
	for _, rec := range cases {
		got, err := DecodeStoreRec(FormatBinary.EncodeStoreRec(rec.Op, rec.UIDs))
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != rec.Op || len(got.UIDs) != len(rec.UIDs) ||
			(len(rec.UIDs) > 0 && !reflect.DeepEqual(got.UIDs, rec.UIDs)) {
			t.Fatalf("got %+v want %+v", got, rec)
		}
	}
}

func TestJournalRecRoundTrip(t *testing.T) {
	data := FormatBinary.EncodeStateRec("task", "t.1", "DONE")
	payload := AppendJournalRec(nil, 99, "state", data)
	seq, typ, got, err := DecodeJournalRec(payload)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 99 || string(typ) != "state" || !reflect.DeepEqual(got, data) {
		t.Fatalf("journal record round trip: seq=%d typ=%q", seq, typ)
	}
}

func TestBrokerRecsRoundTrip(t *testing.T) {
	p, err := DecodeBrokerPublish(FormatBinary.EncodeBrokerPublish("pending", 7, []byte("body")))
	if err != nil || p.Queue != "pending" || p.ID != 7 || string(p.Body) != "body" {
		t.Fatalf("publish round trip: %+v, %v", p, err)
	}

	a, err := DecodeBrokerAck(FormatBinary.EncodeBrokerAck("pending", 7))
	if err != nil || a.Queue != "pending" || a.ID != 7 {
		t.Fatalf("ack round trip: %+v, %v", a, err)
	}

	msgs := []BrokerMsg{{ID: 1, Body: []byte("a")}, {ID: 2, Body: []byte("bb")}}
	pb, err := DecodeBrokerPublishBatch(FormatBinary.EncodeBrokerPublishBatch("done", msgs))
	if err != nil || pb.Queue != "done" || !reflect.DeepEqual(pb.Msgs, msgs) {
		t.Fatalf("publish batch round trip: %+v, %v", pb, err)
	}

	ab, err := DecodeBrokerAckBatch(FormatBinary.EncodeBrokerAckBatch("done", []uint64{1, 2, 3}))
	if err != nil || ab.Queue != "done" || !reflect.DeepEqual(ab.IDs, []uint64{1, 2, 3}) {
		t.Fatalf("ack batch round trip: %+v, %v", ab, err)
	}
}

// retiredJSON holds one document per message the removed JSON control-plane
// format used to carry. Every decoder must reject them.
var retiredJSON = []string{
	`{"task_uids":["task.1","task.2"]}`,
	`{"reply":"q","seq":3,"reqs":[{"entity":"task","uids":["a"],"target":"DONE"}]}`,
	`{"seq":9,"ok":true}`,
	`[{"UID":"t.1","ExitCode":2,"Error":"boom"}]`,
	`{"uid":"t","executable":"sleep","arguments":["0"],"cores":1}`,
	`{"entity":"task","uid":"t.1","state":"DONE"}`,
	`{"uids":["task.1"],"op":"pull"}`,
	`{"seq":1,"type":"state","data":{"entity":"task","uid":"t.1","state":"DONE"}}`,
	`{"q":"pending","id":7,"body":"Ym9keQ=="}`,
	`{"q":"done","msgs":[{"id":1,"body":"YQ=="}]}`,
	`{"q":"done","ids":[1,2,3]}`,
	`{"watermark":9,"entries":[{"entity":"task","uid":"t.1","state":"DONE"}]}`,
	`{"index":2,"base_seq":17}`,
	`{"tenant":"alice","app_json":"e30="}`,
	`{"op":"list"}`,
}

// TestDecodersRejectForeignBodies pins the single decode path: every
// exported decoder returns an error — and never panics — for a JSON
// document, an empty body, a body too short for a header, a wrong magic
// byte, a valid frame of another type and a frame from a newer wire version.
func TestDecodersRejectForeignBodies(t *testing.T) {
	decoders := []struct {
		name   string
		typ    byte
		decode func([]byte) error
	}{
		{"TaskUIDs", FrameTaskUIDs, func(b []byte) error { _, err := DecodeTaskUIDs(b); return err }},
		{"SyncFrame", FrameSyncFrame, func(b []byte) error { _, err := DecodeSyncFrame(b); return err }},
		{"SyncAck", FrameSyncAck, func(b []byte) error { _, err := DecodeSyncAck(b); return err }},
		{"TaskResults", FrameTaskResults, func(b []byte) error { _, err := DecodeTaskResults(b); return err }},
		{"Fig6Task", FrameFig6Task, func(b []byte) error { return DecodeFig6Task(b, &Fig6Task{}) }},
		{"JournalRec", FrameJournalRec, func(b []byte) error { _, _, _, err := DecodeJournalRec(b); return err }},
		{"StateRec", FrameStateRec, func(b []byte) error { _, err := DecodeStateRec(b); return err }},
		{"StoreRec", FrameStoreRec, func(b []byte) error { _, err := DecodeStoreRec(b); return err }},
		{"Snapshot", FrameSnapshot, func(b []byte) error { _, err := DecodeSnapshot(b); return err }},
		{"SegmentHeader", FrameSegmentHdr, func(b []byte) error { _, err := DecodeSegmentHeader(b); return err }},
		{"BrokerPublish", FrameBrokerPublish, func(b []byte) error { _, err := DecodeBrokerPublish(b); return err }},
		{"BrokerAck", FrameBrokerAck, func(b []byte) error { _, err := DecodeBrokerAck(b); return err }},
		{"BrokerPublishBatch", FrameBrokerPublishBatch, func(b []byte) error { _, err := DecodeBrokerPublishBatch(b); return err }},
		{"BrokerAckBatch", FrameBrokerAckBatch, func(b []byte) error { _, err := DecodeBrokerAckBatch(b); return err }},
		{"DaemonSubmit", FrameDaemonSubmit, func(b []byte) error { _, err := DecodeDaemonSubmit(b); return err }},
		{"RunOp", FrameDaemonRunOp, func(b []byte) error { _, err := DecodeRunOp(b); return err }},
		{"Ping", FramePing, func(b []byte) error { _, err := DecodePing(b); return err }},
		{"Pong", FramePong, func(b []byte) error { _, err := DecodePong(b); return err }},
		{"Hello", FrameHello, func(b []byte) error { _, err := DecodeHello(b); return err }},
		{"TaskBatch", FrameTaskBatch, func(b []byte) error { _, err := DecodeTaskBatch(b); return err }},
		{"AgentStats", FrameAgentStats, func(b []byte) error { _, err := DecodeAgentStats(b); return err }},
		{"Attach", FrameAttach, func(b []byte) error { _, err := DecodeAttach(b); return err }},
		{"EventBatch", FrameEventBatch, func(b []byte) error { _, err := DecodeEventBatch(b); return err }},
		{"EventEnd", FrameEventEnd, func(b []byte) error { _, err := DecodeEventEnd(b); return err }},
	}
	ack, _ := FormatBinary.EncodeSyncAck(SyncAck{Seq: 1, OK: true})
	uids := FormatBinary.EncodeTaskUIDs([]string{"task.1"})
	for _, d := range decoders {
		other := ack
		if d.typ == FrameSyncAck {
			other = uids
		}
		bodies := map[string][]byte{
			"empty":         nil,
			"two bytes":     {Magic, Version},
			"wrong magic":   {0x7B, Version, d.typ, 0, 0, 0, 0},
			"wrong type":    other,
			"newer version": {Magic, Version + 1, d.typ, 0, 0, 0, 0},
		}
		for _, doc := range retiredJSON {
			bodies["json "+doc] = []byte(doc)
		}
		for name, body := range bodies {
			if err := d.decode(body); err == nil {
				t.Errorf("Decode%s accepted %s", d.name, name)
			}
		}
	}
}

// resolvers are the kinds of msgcodec.Resolve a decoder must be indifferent
// to: one that knows nothing, one that knows every other string of the frame
// (so hits and misses interleave), and one that answers every question with
// the same wrong string.
func resolvers(known []string) map[string]Resolve {
	half := map[string]string{}
	for i, s := range known {
		if i%2 == 0 {
			half[s] = s
		}
	}
	return map[string]Resolve{
		"ignorant": func([]byte) string { return "" },
		"half":     func(b []byte) string { return half[string(b)] },
		"liar":     func([]byte) string { return "task.someone-else" },
	}
}

// checkResolvingDecoders holds the resolving decoders to their
// contract on one body: with any resolver they accept exactly the bodies the
// plain decoders accept and return exactly the same value, and that value
// holds no reference into the body — it is scribbled over before comparing.
func checkResolvingDecoders(t *testing.T, body []byte) {
	t.Helper()
	type decoder struct {
		name string
		with func([]byte, Resolve) (any, error)
		strs func(any) []string
	}
	for _, d := range []decoder{
		{"TaskUIDs",
			func(b []byte, r Resolve) (any, error) { return AppendTaskUIDs(nil, b, r) },
			func(v any) []string { return v.([]string) }},
		{"SyncFrame",
			func(b []byte, r Resolve) (any, error) {
				var fr SyncFrame
				err := DecodeSyncFrameInto(&fr, b, r)
				return fr, err
			},
			func(v any) []string {
				fr := v.(SyncFrame)
				out := []string{fr.Reply}
				for _, req := range fr.Reqs {
					out = append(append(out, req.Entity, req.Target, req.UID, req.ExecErr), req.UIDs...)
				}
				return out
			}},
		{"TaskResults",
			func(b []byte, r Resolve) (any, error) { return AppendTaskResults(nil, b, r) },
			func(v any) []string {
				var out []string
				for _, res := range v.([]TaskResult) {
					out = append(out, res.UID, res.Error)
				}
				return out
			}},
		{"StateRec",
			func(b []byte, r Resolve) (any, error) { return DecodeStateRecWith(b, r) },
			func(v any) []string { sr := v.(StateRec); return []string{sr.Entity, sr.UID, sr.State} }},
		{"Snapshot",
			func(b []byte, r Resolve) (any, error) {
				var s Snapshot
				err := DecodeSnapshotInto(&s, b, r)
				return s, err
			},
			func(v any) []string {
				var out []string
				for _, e := range v.(Snapshot).Entries {
					out = append(out, e.Entity, e.UID, e.State)
				}
				return out
			}},
	} {
		want, werr := d.with(append([]byte(nil), body...), nil)
		var known []string
		if werr == nil {
			known = d.strs(want)
		}
		for name, resolve := range resolvers(known) {
			scratch := append([]byte(nil), body...)
			got, gerr := d.with(scratch, resolve)
			for i := range scratch {
				scratch[i] ^= 0xff
			}
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s decoded with the %s resolver: error %v, plain decode error %v", d.name, name, gerr, werr)
			}
			if gerr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s decoded with the %s resolver = %+v, plain decode = %+v", d.name, name, got, want)
			}
		}
	}
}

// reusedDecodes is a receiver that owns its decode buffers, as the
// Synchronizer, the Emgr and Dequeue do: one SyncFrame, one UID slice, one
// result slice and one Snapshot that every body is decoded over. lastFrame,
// lastUIDs, lastResults and lastSnap are the last bodies each decoder accepted
// — what the buffers are made to hold before the next body is decoded over
// them.
type reusedDecodes struct {
	frame                                      SyncFrame
	uids                                       []string
	results                                    []TaskResult
	snap                                       Snapshot
	lastFrame, lastUIDs, lastResults, lastSnap []byte
}

func newReusedDecodes() *reusedDecodes {
	// Start from bodies that fill every field a later, smaller one leaves out.
	frame, _ := FormatBinary.EncodeSyncFrame(SyncFrame{Reply: "stale-q", Seq: 99, Reqs: []SyncRequest{
		{Entity: "task", UID: "stale.0", UIDs: []string{"stale.1", "stale.2", "stale.3"}, Target: "FAILED", ExitCode: 7, ExecErr: "stale error"},
		{Entity: "stage", UID: "stale.s", UIDs: []string{"stale.4"}, Target: "DONE", ExitCode: -1, ExecErr: "stale too"}}})
	results, _ := FormatBinary.EncodeTaskResults([]TaskResult{
		{UID: "stale.1", ExitCode: 9, Error: "stale error", Canceled: true, Started: time.Unix(1, 2), Finished: time.Unix(3, 4), StagingTime: 5},
		{UID: "stale.2", ExitCode: 1, Error: "stale too", Started: time.Unix(6, 7), Finished: time.Unix(8, 9), StagingTime: 10}})
	return &reusedDecodes{lastFrame: frame, lastResults: results,
		lastUIDs: FormatBinary.EncodeTaskUIDs([]string{"stale.1", "stale.2", "stale.3"}),
		lastSnap: FormatBinary.EncodeSnapshot(Snapshot{Watermark: 99, Entries: []SnapEntry{
			{Entity: "task", UID: "stale.1", State: "FAILED"}, {Entity: "stage", UID: "stale.s", State: "DONE"}}})}
}

// check decodes body over buffers that have just held a different body and
// holds the outcome to a fresh decode's: the same error or none, the same
// value, nothing of the earlier body showing through.
func (h *reusedDecodes) check(t *testing.T, body []byte) {
	t.Helper()
	keep := func(last *[]byte) { *last = append([]byte(nil), body...) }

	if err := DecodeSyncFrameInto(&h.frame, h.lastFrame, nil); err != nil {
		t.Fatalf("the last accepted sync frame no longer decodes: %v", err)
	}
	fresh, ferr := DecodeSyncFrame(body)
	rerr := DecodeSyncFrameInto(&h.frame, body, nil)
	if (ferr == nil) != (rerr == nil) {
		t.Fatalf("sync frame into a used value: error %v, fresh decode error %v", rerr, ferr)
	}
	if ferr == nil {
		same := h.frame.Reply == fresh.Reply && h.frame.Seq == fresh.Seq && len(h.frame.Reqs) == len(fresh.Reqs)
		for i := 0; same && i < len(fresh.Reqs); i++ {
			a, b := h.frame.Reqs[i], fresh.Reqs[i]
			same = a.Entity == b.Entity && a.UID == b.UID && a.Target == b.Target &&
				a.ExitCode == b.ExitCode && a.ExecErr == b.ExecErr && slices.Equal(a.UIDs, b.UIDs)
		}
		if !same {
			t.Fatalf("sync frame into a used value = %+v, fresh decode = %+v", h.frame, fresh)
		}
		keep(&h.lastFrame)
	}

	h.uids, _ = AppendTaskUIDs(h.uids[:0], h.lastUIDs, nil)
	freshUIDs, ferr := DecodeTaskUIDs(body)
	uids, rerr := AppendTaskUIDs(h.uids[:0], body, nil)
	if (ferr == nil) != (rerr == nil) || !slices.Equal(uids, freshUIDs) {
		t.Fatalf("task UIDs into a used slice = %q (%v), fresh decode = %q (%v)", uids, rerr, freshUIDs, ferr)
	}
	if ferr == nil {
		h.uids = uids
		keep(&h.lastUIDs)
	}

	h.results, _ = AppendTaskResults(h.results[:0], h.lastResults, nil)
	freshResults, ferr := DecodeTaskResults(body)
	results, rerr := AppendTaskResults(h.results[:0], body, nil)
	if (ferr == nil) != (rerr == nil) || !slices.Equal(results, freshResults) {
		t.Fatalf("task results into a used slice = %+v (%v), fresh decode = %+v (%v)", results, rerr, freshResults, ferr)
	}
	if ferr == nil {
		h.results = results
		keep(&h.lastResults)
	}

	if err := DecodeSnapshotInto(&h.snap, h.lastSnap, nil); err != nil {
		t.Fatalf("the last accepted snapshot no longer decodes: %v", err)
	}
	freshSnap, ferr := DecodeSnapshot(body)
	rerr = DecodeSnapshotInto(&h.snap, body, nil)
	if (ferr == nil) != (rerr == nil) {
		t.Fatalf("snapshot into a used value: error %v, fresh decode error %v", rerr, ferr)
	}
	if ferr == nil {
		if h.snap.Watermark != freshSnap.Watermark || !slices.Equal(h.snap.Entries, freshSnap.Entries) {
			t.Fatalf("snapshot into a used value = %+v, fresh decode = %+v", h.snap, freshSnap)
		}
		keep(&h.lastSnap)
	}
}

// TestResolverSuppliesTheStrings: what a resolver knows, the decoder takes
// from it — the very string, not a copy — and what it does not know, or gets
// wrong, the decoder copies from the frame.
func TestResolverSuppliesTheStrings(t *testing.T) {
	mine := []string{"task.000001", "task.000002"}
	body := FormatBinary.EncodeTaskUIDs([]string{"task.000001", "task.000003", "task.000002"})
	got, err := AppendTaskUIDs(nil, body, func(b []byte) string {
		for _, s := range mine {
			if s == string(b) {
				return s
			}
		}
		return "task.000001" // wrong for task.000003: must not be believed
	})
	if err != nil || !reflect.DeepEqual(got, []string{"task.000001", "task.000003", "task.000002"}) {
		t.Fatalf("decoded %v (%v)", got, err)
	}
	if unsafe.StringData(got[0]) != unsafe.StringData(mine[0]) || unsafe.StringData(got[2]) != unsafe.StringData(mine[1]) {
		t.Fatal("known UIDs were copied instead of taken from the resolver")
	}
}

// FuzzDecodeFrame throws arbitrary bytes at every decoder: malformed,
// truncated or type-confused frames must error cleanly — never panic,
// never over-allocate from a hostile length prefix — and the decoders that
// take a resolver must not let it change what they accept or return.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(FormatBinary.EncodeTaskUIDs([]string{"task.1", "task.2"}))
	if b, err := FormatBinary.EncodeSyncFrame(SyncFrame{Reply: "q", Seq: 3, Reqs: []SyncRequest{
		{Entity: "task", UIDs: []string{"a", "b"}, Target: "DONE"}}}); err == nil {
		f.Add(b)
	}
	if b, err := FormatBinary.EncodeSyncAck(SyncAck{Seq: 9, OK: true}); err == nil {
		f.Add(b)
	}
	if b, err := FormatBinary.EncodeTaskResults([]TaskResult{{UID: "t", ExitCode: 1, Started: time.Unix(3, 4)}}); err == nil {
		f.Add(b)
	}
	f.Add(FormatBinary.EncodeFig6Task(&Fig6Task{UID: "t", Executable: "sleep", Arguments: []string{"0"}, Cores: 1}))
	f.Add(FormatBinary.EncodeStateRec("task", "t.1", "DONE"))
	f.Add(FormatBinary.EncodeStoreRec("push", []string{"task.1", "task.2"}))
	f.Add(FormatBinary.EncodeSnapshot(Snapshot{Watermark: 9, Entries: []SnapEntry{
		{Entity: "task", UID: "t.1", State: "DONE"}}}))
	f.Add(FormatBinary.EncodeSegmentHeader(SegmentHeader{Index: 2, BaseSeq: 17}))
	f.Add(AppendJournalRec(nil, 1, "state", []byte("x")))
	f.Add(FormatBinary.EncodeBrokerPublishBatch("q", []BrokerMsg{{ID: 1, Body: []byte("b")}}))
	// Truncations and corruptions of a valid frame.
	valid := FormatBinary.EncodeTaskUIDs([]string{"task.000001", "task.000002"})
	for i := 0; i < len(valid); i += 3 {
		f.Add(valid[:i])
	}
	f.Add([]byte{Magic, Version, FrameTaskUIDs, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// The retired JSON documents: foreign bodies, rejected on the first byte.
	for _, doc := range retiredJSON {
		f.Add([]byte(doc))
	}

	reused := newReusedDecodes()
	f.Fuzz(func(t *testing.T, body []byte) {
		reused.check(t, body)
		DecodeTaskUIDs(body)              //nolint:errcheck
		DecodeSyncFrame(body)             //nolint:errcheck
		DecodeSyncAck(body)               //nolint:errcheck
		DecodeTaskResults(body)           //nolint:errcheck
		DecodeFig6Task(body, &Fig6Task{}) //nolint:errcheck
		DecodeStateRec(body)              //nolint:errcheck
		DecodeStoreRec(body)              //nolint:errcheck
		DecodeJournalRec(body)            //nolint:errcheck
		DecodeBrokerPublish(body)         //nolint:errcheck
		DecodeBrokerAck(body)             //nolint:errcheck
		DecodeBrokerPublishBatch(body)    //nolint:errcheck
		DecodeBrokerAckBatch(body)        //nolint:errcheck
		DecodeSnapshot(body)              //nolint:errcheck
		DecodeSegmentHeader(body)         //nolint:errcheck
		checkResolvingDecoders(t, body)
	})
}
