package msgcodec

import (
	"math"
	"time"
)

// ---- remote control-plane frames -----------------------------------------
//
// The frames of the networked control plane: the manager <-> entk-agent task
// links and the remote event fan-out (internal/remoterts over
// internal/transport). Unlike the queue and journal codecs they exist solely
// on live sockets, never in durable storage. Every decoder rejects malformed
// input with an error (FuzzDecodeRemote pins this).

// EncodePing encodes a transport keepalive probe.
func EncodePing(seq uint64) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FramePing)
	buf = appendUvarint(buf, seq)
	return putBuf(bp, buf)
}

// DecodePing decodes a keepalive probe.
func DecodePing(body []byte) (uint64, error) {
	r, err := frameReader(body, FramePing)
	if err != nil {
		return 0, err
	}
	return r.uvarint()
}

// EncodePong encodes a keepalive reply echoing the probe's sequence number.
func EncodePong(seq uint64) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FramePong)
	buf = appendUvarint(buf, seq)
	return putBuf(bp, buf)
}

// DecodePong decodes a keepalive reply.
func DecodePong(body []byte) (uint64, error) {
	r, err := frameReader(body, FramePong)
	if err != nil {
		return 0, err
	}
	return r.uvarint()
}

// Hello is the first frame on every remote connection, in both directions:
// the dialer introduces itself (role "manager" or "attach"), the listener
// answers with its own identity and — for agents — the capacity it offers.
type Hello struct {
	// Proto is the remote-protocol revision, bumped on incompatible
	// handshake or routing changes independently of the frame Version.
	Proto int
	// Role is "manager", "agent" or "attach".
	Role string
	// Name labels the peer in logs and stats ("agent-1", "entk-manager").
	Name string
	// Cores and GPUs advertise an agent's pilot capacity; zero otherwise.
	Cores int
	GPUs  int
}

// RemoteProto is the current remote-protocol revision.
const RemoteProto = 1

// EncodeHello encodes a handshake frame.
func EncodeHello(h Hello) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameHello)
	buf = appendVarint(buf, int64(h.Proto))
	buf = appendString(buf, h.Role)
	buf = appendString(buf, h.Name)
	buf = appendVarint(buf, int64(h.Cores))
	buf = appendVarint(buf, int64(h.GPUs))
	return putBuf(bp, buf)
}

// DecodeHello decodes a handshake frame.
func DecodeHello(body []byte) (Hello, error) {
	r, err := frameReader(body, FrameHello)
	if err != nil {
		return Hello{}, err
	}
	var h Hello
	v, err := r.varint()
	if err != nil {
		return Hello{}, err
	}
	h.Proto = int(v)
	if h.Role, err = r.str(); err != nil {
		return Hello{}, err
	}
	if h.Name, err = r.str(); err != nil {
		return Hello{}, err
	}
	if v, err = r.varint(); err != nil {
		return Hello{}, err
	}
	h.Cores = int(v)
	if v, err = r.varint(); err != nil {
		return Hello{}, err
	}
	h.GPUs = int(v)
	return h, nil
}

// RemoteStaging is the wire shape of one staging directive. It mirrors
// core.StagingDirective field for field (msgcodec cannot import core).
type RemoteStaging struct {
	Source   string
	Target   string
	Action   string
	Bytes    int64
	Protocol string
}

// RemoteTask is the wire shape of one task description shipped to a remote
// agent. It carries every core.TaskDescription field except LocalFunc —
// in-process closures cannot cross a socket, so the manager-side proxy
// rejects tasks that set one (docs/remote.md).
type RemoteTask struct {
	UID         string
	Name        string
	Executable  string
	Arguments   []string
	Environment map[string]string
	Cores       int
	GPUs        int
	Duration    time.Duration
	IOLoad      float64
	PreExec     int
	PostExec    int
	Input       []RemoteStaging
	Output      []RemoteStaging
	Attempt     int
	Tags        map[string]string
}

// The fewest bytes one element of each repeated group encodes to — all its
// strings empty, all its numbers one-byte varints. reader.count holds a
// claimed element count against these before anything is sized by it.
const (
	minStringMapEntrySize = 2  // key, value
	minStagingSize        = 5  // three strings, Bytes, Protocol
	minRemoteTaskSize     = 15 // three strings, four counts, eight numbers
)

func appendStringMap(buf []byte, m map[string]string) []byte {
	buf = appendUvarint(buf, uint64(len(m)))
	for k, v := range m {
		buf = appendString(buf, k)
		buf = appendString(buf, v)
	}
	return buf
}

func (r *reader) stringMap() (map[string]string, error) {
	n, err := r.count(minStringMapEntrySize)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.str()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func appendStaging(buf []byte, ds []RemoteStaging) []byte {
	buf = appendUvarint(buf, uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		buf = appendString(buf, d.Source)
		buf = appendString(buf, d.Target)
		buf = appendString(buf, d.Action)
		buf = appendVarint(buf, d.Bytes)
		buf = appendString(buf, d.Protocol)
	}
	return buf
}

// staging decodes one staging list into buf[:0], growing it as needed, and
// returns it — empty, never nil, for an empty list, so the caller keeps the
// capacity for the next task.
func (r *reader) staging(buf []RemoteStaging) ([]RemoteStaging, error) {
	n, err := r.count(minStagingSize)
	if err != nil {
		return buf, err
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		var d RemoteStaging
		if d.Source, err = r.str(); err != nil {
			return buf, err
		}
		if d.Target, err = r.str(); err != nil {
			return buf, err
		}
		if d.Action, err = r.str(); err != nil {
			return buf, err
		}
		if d.Bytes, err = r.varint(); err != nil {
			return buf, err
		}
		if d.Protocol, err = r.str(); err != nil {
			return buf, err
		}
		buf = append(buf, d)
	}
	return buf, nil
}

// EncodeTaskBatchFunc encodes a manager -> agent batch of n tasks straight
// from whatever the caller holds them in: fill(i, t) describes task i into
// t, for i = 0..n-1 in order. t is one scratch value, zeroed before every
// call except that Input and Output keep their capacity at length 0, so a
// filler translating staging directives appends to them.
func EncodeTaskBatchFunc(n int, fill func(i int, t *RemoteTask)) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameTaskBatch)
	buf = appendUvarint(buf, uint64(n))
	var t RemoteTask
	for i := 0; i < n; i++ {
		t = RemoteTask{Input: t.Input[:0], Output: t.Output[:0]}
		fill(i, &t)
		buf = appendString(buf, t.UID)
		buf = appendString(buf, t.Name)
		buf = appendString(buf, t.Executable)
		buf = appendUvarint(buf, uint64(len(t.Arguments)))
		for _, a := range t.Arguments {
			buf = appendString(buf, a)
		}
		buf = appendStringMap(buf, t.Environment)
		buf = appendVarint(buf, int64(t.Cores))
		buf = appendVarint(buf, int64(t.GPUs))
		buf = appendVarint(buf, int64(t.Duration))
		buf = appendUvarint(buf, math.Float64bits(t.IOLoad))
		buf = appendVarint(buf, int64(t.PreExec))
		buf = appendVarint(buf, int64(t.PostExec))
		buf = appendStaging(buf, t.Input)
		buf = appendStaging(buf, t.Output)
		buf = appendVarint(buf, int64(t.Attempt))
		buf = appendStringMap(buf, t.Tags)
	}
	return putBuf(bp, buf)
}

// EncodeTaskBatch encodes a manager -> agent task batch held as a slice.
func EncodeTaskBatch(tasks []RemoteTask) []byte {
	return EncodeTaskBatchFunc(len(tasks), func(i int, t *RemoteTask) { *t = tasks[i] })
}

// DecodeTaskBatchFunc decodes a manager -> agent task batch straight into
// whatever the caller keeps tasks in: size(n) is called once with the task
// count, after the count has been held against the frame's length and
// before any task is decoded; each(i, t) is then called for i = 0..n-1 in
// order. An error can follow any number of each calls.
//
// The frame is copied into one string and every string field is a substring
// of it: nothing handed to each aliases body, and a retained field keeps
// that one copy — about the frame's size — reachable. t is one scratch value.
// Its Arguments, Environment and Tags are the task's own and may be kept;
// its Input and Output are overwritten by the next task and must be copied.
func DecodeTaskBatchFunc(body []byte, size func(n int), each func(i int, t *RemoteTask)) error {
	r, err := frameReader(body, FrameTaskBatch)
	if err != nil {
		return err
	}
	n, err := r.count(minRemoteTaskSize)
	if err != nil {
		return err
	}
	r.share(body)
	size(n)
	var t RemoteTask
	for i := 0; i < n; i++ {
		t = RemoteTask{Input: t.Input, Output: t.Output}
		if err := r.remoteTask(&t); err != nil {
			return err
		}
		each(i, &t)
	}
	return nil
}

// remoteTask decodes one task of a batch into t.
func (r *reader) remoteTask(t *RemoteTask) (err error) {
	if t.UID, err = r.str(); err != nil {
		return err
	}
	if t.Name, err = r.str(); err != nil {
		return err
	}
	if t.Executable, err = r.str(); err != nil {
		return err
	}
	m, err := r.count(1)
	if err != nil {
		return err
	}
	if m > 0 {
		t.Arguments = make([]string, m)
		for k := range t.Arguments {
			if t.Arguments[k], err = r.str(); err != nil {
				return err
			}
		}
	}
	if t.Environment, err = r.stringMap(); err != nil {
		return err
	}
	var v int64
	if v, err = r.varint(); err != nil {
		return err
	}
	t.Cores = int(v)
	if v, err = r.varint(); err != nil {
		return err
	}
	t.GPUs = int(v)
	if v, err = r.varint(); err != nil {
		return err
	}
	t.Duration = time.Duration(v)
	bits, err := r.uvarint()
	if err != nil {
		return err
	}
	t.IOLoad = math.Float64frombits(bits)
	if v, err = r.varint(); err != nil {
		return err
	}
	t.PreExec = int(v)
	if v, err = r.varint(); err != nil {
		return err
	}
	t.PostExec = int(v)
	if t.Input, err = r.staging(t.Input); err != nil {
		return err
	}
	if t.Output, err = r.staging(t.Output); err != nil {
		return err
	}
	if v, err = r.varint(); err != nil {
		return err
	}
	t.Attempt = int(v)
	t.Tags, err = r.stringMap()
	return err
}

// DecodeTaskBatch decodes a manager -> agent task batch into a slice.
func DecodeTaskBatch(body []byte) ([]RemoteTask, error) {
	var tasks []RemoteTask
	err := DecodeTaskBatchFunc(body,
		func(n int) { tasks = make([]RemoteTask, n) },
		func(i int, t *RemoteTask) {
			tasks[i] = *t
			tasks[i].Input = cloneStaging(t.Input)
			tasks[i].Output = cloneStaging(t.Output)
		})
	if err != nil {
		return nil, err
	}
	return tasks, nil
}

// cloneStaging copies a scratch staging list; an empty one becomes nil.
func cloneStaging(ds []RemoteStaging) []RemoteStaging {
	if len(ds) == 0 {
		return nil
	}
	return append([]RemoteStaging(nil), ds...)
}

// AgentStats is the agent's periodic liveness and utilization report: the
// remote equivalent of polling Alive/Utilization/StoreStats in-process. The
// store block mirrors core.StoreStats field for field.
type AgentStats struct {
	Alive         bool
	CoresTotal    int
	CoresBusy     int
	GPUsTotal     int
	GPUsBusy      int
	TasksInFlight int

	Shards              int
	ShardDepths         []int
	Depth               int
	Pushed              uint64
	Pulled              uint64
	Steals              uint64
	Schedulers          int
	SchedulerPulls      []uint64
	SchedulerDispatches []uint64
}

// EncodeAgentStats encodes an agent report frame.
func EncodeAgentStats(s AgentStats) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameAgentStats)
	buf = appendBool(buf, s.Alive)
	buf = appendVarint(buf, int64(s.CoresTotal))
	buf = appendVarint(buf, int64(s.CoresBusy))
	buf = appendVarint(buf, int64(s.GPUsTotal))
	buf = appendVarint(buf, int64(s.GPUsBusy))
	buf = appendVarint(buf, int64(s.TasksInFlight))
	buf = appendVarint(buf, int64(s.Shards))
	buf = appendUvarint(buf, uint64(len(s.ShardDepths)))
	for _, d := range s.ShardDepths {
		buf = appendVarint(buf, int64(d))
	}
	buf = appendVarint(buf, int64(s.Depth))
	buf = appendUvarint(buf, s.Pushed)
	buf = appendUvarint(buf, s.Pulled)
	buf = appendUvarint(buf, s.Steals)
	buf = appendVarint(buf, int64(s.Schedulers))
	buf = appendUvarint(buf, uint64(len(s.SchedulerPulls)))
	for _, v := range s.SchedulerPulls {
		buf = appendUvarint(buf, v)
	}
	buf = appendUvarint(buf, uint64(len(s.SchedulerDispatches)))
	for _, v := range s.SchedulerDispatches {
		buf = appendUvarint(buf, v)
	}
	return putBuf(bp, buf)
}

// DecodeAgentStats decodes an agent report frame.
func DecodeAgentStats(body []byte) (AgentStats, error) {
	r, err := frameReader(body, FrameAgentStats)
	if err != nil {
		return AgentStats{}, err
	}
	var s AgentStats
	if s.Alive, err = r.bool(); err != nil {
		return AgentStats{}, err
	}
	ints := []*int{&s.CoresTotal, &s.CoresBusy, &s.GPUsTotal, &s.GPUsBusy, &s.TasksInFlight, &s.Shards}
	for _, p := range ints {
		v, err := r.varint()
		if err != nil {
			return AgentStats{}, err
		}
		*p = int(v)
	}
	n, err := r.count(1)
	if err != nil {
		return AgentStats{}, err
	}
	if n > 0 {
		s.ShardDepths = make([]int, n)
		for i := range s.ShardDepths {
			v, err := r.varint()
			if err != nil {
				return AgentStats{}, err
			}
			s.ShardDepths[i] = int(v)
		}
	}
	v, err := r.varint()
	if err != nil {
		return AgentStats{}, err
	}
	s.Depth = int(v)
	for _, p := range []*uint64{&s.Pushed, &s.Pulled, &s.Steals} {
		if *p, err = r.uvarint(); err != nil {
			return AgentStats{}, err
		}
	}
	if v, err = r.varint(); err != nil {
		return AgentStats{}, err
	}
	s.Schedulers = int(v)
	for _, p := range []*[]uint64{&s.SchedulerPulls, &s.SchedulerDispatches} {
		n, err := r.count(1)
		if err != nil {
			return AgentStats{}, err
		}
		if n == 0 {
			continue
		}
		vs := make([]uint64, n)
		for i := range vs {
			if vs[i], err = r.uvarint(); err != nil {
				return AgentStats{}, err
			}
		}
		*p = vs
	}
	return s, nil
}

// Attach is the event-subscriber handshake: which events the peer wants and
// how deep its server-side ring should be. The fields mirror
// core.EventFilter (Kinds as plain strings).
type Attach struct {
	Kinds    []string
	Pipeline string
	UIDs     []string
	Buffer   int
}

// EncodeAttach encodes an event-subscription request.
func EncodeAttach(a Attach) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameAttach)
	buf = appendUvarint(buf, uint64(len(a.Kinds)))
	for _, k := range a.Kinds {
		buf = appendString(buf, k)
	}
	buf = appendString(buf, a.Pipeline)
	buf = appendUvarint(buf, uint64(len(a.UIDs)))
	for _, u := range a.UIDs {
		buf = appendString(buf, u)
	}
	buf = appendVarint(buf, int64(a.Buffer))
	return putBuf(bp, buf)
}

// DecodeAttach decodes an event-subscription request.
func DecodeAttach(body []byte) (Attach, error) {
	r, err := frameReader(body, FrameAttach)
	if err != nil {
		return Attach{}, err
	}
	var a Attach
	n, err := r.count(1)
	if err != nil {
		return Attach{}, err
	}
	if n > 0 {
		a.Kinds = make([]string, n)
		for i := range a.Kinds {
			if a.Kinds[i], err = r.str(); err != nil {
				return Attach{}, err
			}
		}
	}
	if a.Pipeline, err = r.str(); err != nil {
		return Attach{}, err
	}
	if n, err = r.count(1); err != nil {
		return Attach{}, err
	}
	if n > 0 {
		a.UIDs = make([]string, n)
		for i := range a.UIDs {
			if a.UIDs[i], err = r.str(); err != nil {
				return Attach{}, err
			}
		}
	}
	v, err := r.varint()
	if err != nil {
		return Attach{}, err
	}
	a.Buffer = int(v)
	return a, nil
}

// RemoteEvent is the wire shape of one lifecycle event. It mirrors
// core.Event field for field.
type RemoteEvent struct {
	Kind     string
	UID      string
	Name     string
	Pipeline string
	Stage    string
	From     string
	To       string
	VTime    time.Time
	Attempt  int
}

// EncodeEventBatch encodes a server -> subscriber event batch.
func EncodeEventBatch(evs []RemoteEvent) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameEventBatch)
	buf = appendUvarint(buf, uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		buf = appendString(buf, ev.Kind)
		buf = appendString(buf, ev.UID)
		buf = appendString(buf, ev.Name)
		buf = appendString(buf, ev.Pipeline)
		buf = appendString(buf, ev.Stage)
		buf = appendString(buf, ev.From)
		buf = appendString(buf, ev.To)
		buf = appendTime(buf, ev.VTime)
		buf = appendVarint(buf, int64(ev.Attempt))
	}
	return putBuf(bp, buf)
}

// DecodeEventBatch decodes a server -> subscriber event batch.
func DecodeEventBatch(body []byte) ([]RemoteEvent, error) {
	r, err := frameReader(body, FrameEventBatch)
	if err != nil {
		return nil, err
	}
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	evs := make([]RemoteEvent, n)
	for i := range evs {
		ev := &evs[i]
		for _, p := range []*string{&ev.Kind, &ev.UID, &ev.Name, &ev.Pipeline, &ev.Stage, &ev.From, &ev.To} {
			if *p, err = r.str(); err != nil {
				return nil, err
			}
		}
		if ev.VTime, err = r.time(); err != nil {
			return nil, err
		}
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		ev.Attempt = int(v)
	}
	return evs, nil
}

// EncodeEventEnd encodes the stream-end frame carrying the subscription's
// final drop count (the per-peer drop-oldest accounting).
func EncodeEventEnd(dropped uint64) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameEventEnd)
	buf = appendUvarint(buf, dropped)
	return putBuf(bp, buf)
}

// DecodeEventEnd decodes the stream-end frame.
func DecodeEventEnd(body []byte) (uint64, error) {
	r, err := frameReader(body, FrameEventEnd)
	if err != nil {
		return 0, err
	}
	return r.uvarint()
}
