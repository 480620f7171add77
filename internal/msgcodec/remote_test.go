package msgcodec

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"
)

func TestPingPongRoundTrip(t *testing.T) {
	seq, err := DecodePing(EncodePing(42))
	if err != nil || seq != 42 {
		t.Fatalf("ping: %d, %v", seq, err)
	}
	seq, err = DecodePong(EncodePong(43))
	if err != nil || seq != 43 {
		t.Fatalf("pong: %d, %v", seq, err)
	}
	if _, err := DecodePing(EncodePong(1)); err == nil {
		t.Fatal("pong accepted as ping")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Proto: RemoteProto, Role: "agent", Name: "agent-1", Cores: 64, GPUs: 4}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v, want %+v", got, h)
	}
}

// taskBatchFixture exercises every field of the task-batch frame. Its maps
// have one entry each so the encoding is deterministic.
func taskBatchFixture() []RemoteTask {
	return []RemoteTask{
		{
			UID:         "task.000001",
			Name:        "replica",
			Executable:  "mdrun",
			Arguments:   []string{"-deffnm", "md"},
			Environment: map[string]string{"OMP_NUM_THREADS": "4"},
			Cores:       4,
			GPUs:        1,
			Duration:    600 * time.Second,
			IOLoad:      0.25,
			PreExec:     2,
			PostExec:    1,
			Input: []RemoteStaging{
				{Source: "in.gro", Target: "md.gro", Action: "link", Bytes: 1 << 20},
			},
			Output: []RemoteStaging{
				{Source: "md.xtc", Target: "remote://archive/md.xtc", Action: "transfer", Bytes: 1 << 28, Protocol: "globus"},
			},
			Attempt: 3,
			Tags:    map[string]string{"resource": "titan"},
		},
		{UID: "task.000002", Executable: "sleep", Duration: time.Second, Cores: 1},
	}
}

func taskResultsFixture() []TaskResult {
	return []TaskResult{
		{UID: "task.000001", ExitCode: 1, Error: "boom", Canceled: true,
			Started: time.Unix(1, 5), Finished: time.Unix(2, 0), StagingTime: 3 * time.Second},
		{UID: "task.000002"},
	}
}

// The bytes the slice-form encoders produced for the two fixtures before the
// streaming forms existed (PR 18's tree): the 0x33 and 0x04 frames must not
// change under an agent or manager built from an older commit.
const (
	goldenTaskBatch = "bf0133020b7461736b2e303030303031077265706c696361056d6472756e02072d646566666e6d026d64010f4f4d505f4e554d5f5448" +
		"52454144530134080280c0cbacf62280808080808080e83f04020106696e2e67726f066d642e67726f046c696e6b808080010001066d642e7874" +
		"631772656d6f74653a2f2f617263686976652f6d642e787463087472616e73666572808080800206676c6f6275730601087265736f7572636505" +
		"746974616e0b7461736b2e3030303030320005736c6565700000020080a8d6b90700000000000000"
	goldenTaskResults = "bf0104020b7461736b2e3030303030310204626f6f6d01018aa8d6b9070180d0acf30e80f882ad160b7461736b2e303030303032000000000000"
)

func TestTaskBatchGoldenBytes(t *testing.T) {
	tasks := taskBatchFixture()
	streamed := EncodeTaskBatchFunc(len(tasks), func(i int, rt *RemoteTask) {
		// As remoterts fills it: staging appended to the scratch's own slices.
		in, out := rt.Input, rt.Output
		*rt = tasks[i]
		rt.Input = append(in, tasks[i].Input...)
		rt.Output = append(out, tasks[i].Output...)
	})
	for name, got := range map[string][]byte{"EncodeTaskBatchFunc": streamed, "EncodeTaskBatch": EncodeTaskBatch(tasks)} {
		if h := hex.EncodeToString(got); h != goldenTaskBatch {
			t.Errorf("%s changed the task-batch frame:\n got %s\nwant %s", name, h, goldenTaskBatch)
		}
	}
	rs, err := FormatBinary.EncodeTaskResults(taskResultsFixture())
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(rs); h != goldenTaskResults {
		t.Errorf("the task-results frame changed:\n got %s\nwant %s", h, goldenTaskResults)
	}
}

// remoterts' TestDescriptionsSurviveTheWire is the same round trip with the
// proxy's striping filler and the agent's RTS as the receiver.
func TestTaskBatchRoundTrip(t *testing.T) {
	tasks := taskBatchFixture()
	body := EncodeTaskBatch(tasks)
	got, err := DecodeTaskBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tasks) {
		t.Fatalf("got %+v\nwant %+v", got, tasks)
	}
	if got, err = DecodeTaskBatch(EncodeTaskBatch(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

// Shared-string decoding copies the frame once; nothing it returns may alias
// the receive buffer, which the transport's caller is free to reuse.
func TestSharedDecodeDoesNotAliasTheFrame(t *testing.T) {
	tasks, results := taskBatchFixture(), taskResultsFixture()

	body := EncodeTaskBatch(tasks)
	got, err := DecodeTaskBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xee
	}
	if !reflect.DeepEqual(got, tasks) {
		t.Fatalf("decoded tasks changed with the buffer: %+v", got)
	}

	body, err = FormatBinary.EncodeTaskResults(results)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := DecodeTaskResultsShared(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xee
	}
	if !reflect.DeepEqual(rs, results) {
		t.Fatalf("decoded results changed with the buffer: %+v", rs)
	}
}

// A count is held against what its elements must occupy, not against one
// byte each: a frame that claims more tasks than it has room for is refused
// before the receiver is asked to size anything by the claim.
func TestHostileCountsErrorBeforeAllocation(t *testing.T) {
	frame := func(typ byte, count uint64, payload int) []byte {
		b := appendUvarint([]byte{Magic, Version, typ}, count)
		return append(b, make([]byte, payload)...)
	}
	// A zero task is 15 zero bytes, so 4 of them fit 60 bytes exactly.
	if tasks, err := DecodeTaskBatch(frame(FrameTaskBatch, 4, 4*minRemoteTaskSize)); err != nil || len(tasks) != 4 {
		t.Fatalf("4 minimal tasks: decoded %d, err %v", len(tasks), err)
	}
	if _, err := DecodeTaskBatch(frame(FrameTaskBatch, 4, 4*minRemoteTaskSize-1)); err == nil {
		t.Fatal("4 tasks claimed in 59 bytes accepted")
	}
	// What the per-byte bound let through: as many tasks as bytes.
	if _, err := DecodeTaskBatch(frame(FrameTaskBatch, 4096, 4096)); err == nil {
		t.Fatal("4096 tasks claimed in 4096 bytes accepted")
	}
	// The count is refused before the slice is sized by it: sizing by this
	// one would not return an error, it would take the process down.
	if _, err := DecodeTaskBatch(frame(FrameTaskBatch, 1<<40, 4096)); err == nil {
		t.Fatal("2^40 tasks claimed in 4096 bytes accepted")
	}

	for _, decode := range []func([]byte) ([]TaskResult, error){DecodeTaskResults, DecodeTaskResultsShared} {
		if rs, err := decode(frame(FrameTaskResults, 3, 3*minTaskResultSize)); err != nil || len(rs) != 3 {
			t.Fatalf("3 minimal results: %d, %v", len(rs), err)
		}
		if _, err := decode(frame(FrameTaskResults, 4096, 4096)); err == nil {
			t.Fatal("4096 results claimed in 4096 bytes accepted")
		}
	}

	// The repeated groups inside a task: a staging list and a string map that
	// claim one element per remaining byte.
	r := reader{b: frame(0, 64, 64)[3:]}
	if _, err := r.staging(); err == nil {
		t.Fatal("64 staging directives claimed in 64 bytes accepted")
	}
	r = reader{b: frame(0, 64, 64)[3:]}
	if _, err := r.stringMap(); err == nil {
		t.Fatal("64 map entries claimed in 64 bytes accepted")
	}
}

// agentStatsFixture sets every field the agent-stats frame carries.
func agentStatsFixture() AgentStats {
	return AgentStats{Alive: true, RTSStats: RTSStats{
		Utilization: Utilization{CoresTotal: 64, CoresBusy: 12, GPUsTotal: 4, GPUsBusy: 1, TasksInFlight: 9},
		Store: StoreStats{
			Shards: 2, ShardDepths: []int{3, 4}, Depth: 7,
			Pushed: 100, Pulled: 93, Steals: 5, Schedulers: 2,
			SchedulerPulls: []uint64{50, 43}, SchedulerDispatches: []uint64{48, 45},
		},
	}}
}

func TestAgentStatsRoundTrip(t *testing.T) {
	s := agentStatsFixture()
	got, err := DecodeAgentStats(EncodeAgentStats(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("got %+v\nwant %+v", got, s)
	}
}

// The bytes EncodeAgentStats produced for the same values when AgentStats was
// its own flat field list (PR 19's tree): carrying an RTSStats instead must
// not change the 0x34 frame under an agent or manager built from an older
// commit.
const (
	goldenAgentStats     = "bf013401800118080212040206080e645d050402322b02302d"
	goldenAgentStatsZero = "bf0134000000000000000000000000000000"
)

func TestAgentStatsGoldenBytes(t *testing.T) {
	if h := hex.EncodeToString(EncodeAgentStats(agentStatsFixture())); h != goldenAgentStats {
		t.Errorf("the agent-stats frame changed:\n got %s\nwant %s", h, goldenAgentStats)
	}
	// What the frame does not carry does not reach it: the counters stay with
	// the manager's proxy and SchedulerBusy is local-only.
	s := AgentStats{RTSStats: RTSStats{
		PilotsSubmitted: 1, TasksSubmitted: 7, TasksCompleted: 6, TasksFailed: 1,
		Store: StoreStats{SchedulerBusy: []time.Duration{time.Second}},
	}}
	if h := hex.EncodeToString(EncodeAgentStats(s)); h != goldenAgentStatsZero {
		t.Errorf("the empty agent-stats frame changed:\n got %s\nwant %s", h, goldenAgentStatsZero)
	}
	got, err := DecodeAgentStats(EncodeAgentStats(s))
	if err != nil || !reflect.DeepEqual(got, AgentStats{}) {
		t.Fatalf("decoded %+v, %v; want the zero report", got, err)
	}
}

func TestAttachRoundTrip(t *testing.T) {
	a := Attach{Kinds: []string{"task", "stage"}, Pipeline: "pipe.1", UIDs: []string{"t.1"}, Buffer: 512}
	got, err := DecodeAttach(EncodeAttach(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("got %+v, want %+v", got, a)
	}
}

func TestEventBatchRoundTrip(t *testing.T) {
	evs := []RemoteEvent{
		{Kind: "task", UID: "t.1", Name: "replica", Pipeline: "p.1", Stage: "s.1",
			From: "EXECUTED", To: "DONE", VTime: time.Unix(12, 34), Attempt: 1},
		{Kind: "pipeline", UID: "p.1", Name: "md", Pipeline: "p.1", From: "SCHEDULING", To: "DONE"},
	}
	got, err := DecodeEventBatch(EncodeEventBatch(evs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("got %+v\nwant %+v", got, evs)
	}
	n, err := DecodeEventEnd(EncodeEventEnd(17))
	if err != nil || n != 17 {
		t.Fatalf("event end: %d, %v", n, err)
	}
}

func TestFrameTypeHelper(t *testing.T) {
	if ft, ok := FrameType(EncodePing(1)); !ok || ft != FramePing {
		t.Fatalf("FrameType(ping) = %x, %v", ft, ok)
	}
	if _, ok := FrameType([]byte(`{"json":true}`)); ok {
		t.Fatal("JSON body reported as binary frame")
	}
	if _, ok := FrameType([]byte{Magic}); ok {
		t.Fatal("short fragment reported as binary frame")
	}
}

// FuzzDecodeRemote throws arbitrary bytes at the remote-frame decoders:
// malformed, truncated or type-confused frames must error cleanly — never
// panic, never over-allocate from a hostile element count.
func FuzzDecodeRemote(f *testing.F) {
	f.Add(EncodePing(9))
	f.Add(EncodeHello(Hello{Proto: 1, Role: "agent", Name: "a", Cores: 64}))
	f.Add(EncodeTaskBatch([]RemoteTask{{UID: "t.1", Executable: "sleep", Arguments: []string{"1"},
		Environment: map[string]string{"K": "V"}, Input: []RemoteStaging{{Source: "s", Action: "Copy"}}}}))
	f.Add(EncodeAgentStats(AgentStats{Alive: true, RTSStats: RTSStats{
		Store: StoreStats{ShardDepths: []int{1}, SchedulerPulls: []uint64{2}}}}))
	f.Add(EncodeAgentStats(agentStatsFixture()))
	f.Add(EncodeAttach(Attach{Kinds: []string{"task"}, Buffer: 8}))
	f.Add(EncodeEventBatch([]RemoteEvent{{Kind: "task", UID: "t", To: "DONE", VTime: time.Unix(1, 2)}}))
	f.Add(EncodeEventEnd(3))
	valid := EncodeTaskBatch([]RemoteTask{{UID: "task.000001", Name: "n", Executable: "mdrun"}})
	for i := 0; i < len(valid); i += 2 {
		f.Add(valid[:i])
	}
	f.Add([]byte{Magic, Version, FrameTaskBatch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(EncodeTaskBatch(taskBatchFixture()))
	results, _ := FormatBinary.EncodeTaskResults(taskResultsFixture())
	f.Add(results)
	f.Add(results[:len(results)-3])

	f.Fuzz(func(t *testing.T, body []byte) {
		DecodePing(body)       //nolint:errcheck
		DecodePong(body)       //nolint:errcheck
		DecodeHello(body)      //nolint:errcheck
		DecodeAgentStats(body) //nolint:errcheck
		DecodeAttach(body)     //nolint:errcheck
		DecodeEventBatch(body) //nolint:errcheck
		DecodeEventEnd(body)   //nolint:errcheck

		// What decodes re-encodes and decodes again, task for task (compared
		// by count: an IOLoad of NaN is not DeepEqual to itself).
		kept := bytes.Clone(body)
		if tasks, err := DecodeTaskBatch(body); err == nil {
			if len(tasks)*minRemoteTaskSize > len(body) {
				t.Fatalf("%d tasks from a %d-byte frame", len(tasks), len(body))
			}
			again, err := DecodeTaskBatch(EncodeTaskBatch(tasks))
			if err != nil || len(again) != len(tasks) {
				t.Fatalf("re-encoded batch decodes to %d tasks, %v; want %d", len(again), err, len(tasks))
			}
		}

		// Shared-string results are the copying decoder's results.
		shared, serr := DecodeTaskResultsShared(body)
		plain, perr := DecodeTaskResults(body)
		if (serr == nil) != (perr == nil) || !reflect.DeepEqual(shared, plain) {
			t.Fatalf("shared results %+v, %v; copied results %+v, %v", shared, serr, plain, perr)
		}
		if !bytes.Equal(body, kept) {
			t.Fatal("a decoder wrote to the frame")
		}
	})
}
