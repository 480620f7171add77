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

func appendStaging(buf []byte, ds []StagingDirective) []byte {
	buf = appendUvarint(buf, uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		buf = appendString(buf, d.Source)
		buf = appendString(buf, d.Target)
		buf = appendString(buf, string(d.Action))
		buf = appendVarint(buf, d.Bytes)
		buf = appendString(buf, d.Protocol)
	}
	return buf
}

// staging decodes one staging list; an empty one is nil.
func (r *reader) staging() ([]StagingDirective, error) {
	n, err := r.count(minStagingSize)
	if err != nil || n == 0 {
		return nil, err
	}
	ds := make([]StagingDirective, n)
	for i := range ds {
		d := &ds[i]
		if d.Source, err = r.str(); err != nil {
			return nil, err
		}
		if d.Target, err = r.str(); err != nil {
			return nil, err
		}
		var action string
		if action, err = r.str(); err != nil {
			return nil, err
		}
		d.Action = StagingAction(action)
		if d.Bytes, err = r.varint(); err != nil {
			return nil, err
		}
		if d.Protocol, err = r.str(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// EncodeTaskBatch encodes a manager -> agent task batch. LocalFunc is not
// encoded.
func EncodeTaskBatch(tasks []TaskDescription) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameTaskBatch)
	buf = appendUvarint(buf, uint64(len(tasks)))
	for i := range tasks {
		t := &tasks[i]
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

// DecodeTaskBatch decodes a manager -> agent task batch into one slice,
// sized by the task count once that count has been held against the frame's
// length, and filled in place — the slice the agent's RTS keeps.
//
// The frame is copied into one string and every string field is a substring
// of it: nothing returned aliases body, and a retained field keeps that one
// copy — about the frame's size — reachable.
func DecodeTaskBatch(body []byte) ([]TaskDescription, error) {
	r, err := frameReader(body, FrameTaskBatch)
	if err != nil {
		return nil, err
	}
	n, err := r.count(minRemoteTaskSize)
	if err != nil {
		return nil, err
	}
	r.share(body)
	tasks := make([]TaskDescription, n)
	for i := range tasks {
		if err := r.task(&tasks[i]); err != nil {
			return nil, err
		}
	}
	return tasks, nil
}

// task decodes one task of a batch into t, which is zero.
func (r *reader) task(t *TaskDescription) (err error) {
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
	if t.Input, err = r.staging(); err != nil {
		return err
	}
	if t.Output, err = r.staging(); err != nil {
		return err
	}
	if v, err = r.varint(); err != nil {
		return err
	}
	t.Attempt = int(v)
	t.Tags, err = r.stringMap()
	return err
}

// AgentStats is the agent's periodic report: whether the hosted RTS is alive
// — the application-level failure signal — and its Stats, the remote
// equivalent of polling Alive and Stats in-process. The frame carries the
// RTSStats' Utilization and Store (without SchedulerBusy); the four task and
// pilot counters are not on the wire and decode as zero.
type AgentStats struct {
	Alive bool
	RTSStats
}

// EncodeAgentStats encodes an agent report frame.
func EncodeAgentStats(s AgentStats) []byte {
	u, st := &s.Utilization, &s.Store
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameAgentStats)
	buf = appendBool(buf, s.Alive)
	buf = appendVarint(buf, int64(u.CoresTotal))
	buf = appendVarint(buf, int64(u.CoresBusy))
	buf = appendVarint(buf, int64(u.GPUsTotal))
	buf = appendVarint(buf, int64(u.GPUsBusy))
	buf = appendVarint(buf, int64(u.TasksInFlight))
	buf = appendVarint(buf, int64(st.Shards))
	buf = appendUvarint(buf, uint64(len(st.ShardDepths)))
	for _, d := range st.ShardDepths {
		buf = appendVarint(buf, int64(d))
	}
	buf = appendVarint(buf, int64(st.Depth))
	buf = appendUvarint(buf, st.Pushed)
	buf = appendUvarint(buf, st.Pulled)
	buf = appendUvarint(buf, st.Steals)
	buf = appendVarint(buf, int64(st.Schedulers))
	buf = appendUvarint(buf, uint64(len(st.SchedulerPulls)))
	for _, v := range st.SchedulerPulls {
		buf = appendUvarint(buf, v)
	}
	buf = appendUvarint(buf, uint64(len(st.SchedulerDispatches)))
	for _, v := range st.SchedulerDispatches {
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
	u, st := &s.Utilization, &s.Store
	if s.Alive, err = r.bool(); err != nil {
		return AgentStats{}, err
	}
	ints := []*int{&u.CoresTotal, &u.CoresBusy, &u.GPUsTotal, &u.GPUsBusy, &u.TasksInFlight, &st.Shards}
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
		st.ShardDepths = make([]int, n)
		for i := range st.ShardDepths {
			v, err := r.varint()
			if err != nil {
				return AgentStats{}, err
			}
			st.ShardDepths[i] = int(v)
		}
	}
	v, err := r.varint()
	if err != nil {
		return AgentStats{}, err
	}
	st.Depth = int(v)
	for _, p := range []*uint64{&st.Pushed, &st.Pulled, &st.Steals} {
		if *p, err = r.uvarint(); err != nil {
			return AgentStats{}, err
		}
	}
	if v, err = r.varint(); err != nil {
		return AgentStats{}, err
	}
	st.Schedulers = int(v)
	for _, p := range []*[]uint64{&st.SchedulerPulls, &st.SchedulerDispatches} {
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

// ---- lifecycle events ------------------------------------------------------
//
// A committed transition is one Event everywhere: published in process by
// core's event bus, and carried to remote subscribers and entkd clients in
// 0x36 batches. core and entk alias these types.

// EventKind classifies a lifecycle event by the entity that transitioned.
type EventKind string

// Event kinds, matching the entity vocabulary of the state machines, plus
// the autotune controller's knob decisions.
const (
	EventTask     EventKind = "task"
	EventStage    EventKind = "stage"
	EventPipeline EventKind = "pipeline"
	// EventKnob is an autotune controller decision: Name is the knob
	// ("batch" or "schedulers"), From/To its values as decimal strings, and
	// UID is "autotune/<reason>" naming the rule that fired. Knob events are
	// never terminal.
	EventKnob EventKind = "knob"
)

// Event is one committed state transition, published by the Synchronizer at
// the moment it applies the change — the paper's continuously exposed
// execution state (§II-B4), but typed instead of mirrored through
// RabbitMQ/MongoDB. From is the pre-transition state, To the committed one,
// VTime the virtual commit instant. Attempt carries the task's attempt
// counter (0 for stages and pipelines). Pipeline and Stage name the owning
// entities so streams can be scoped without a registry lookup; for a
// pipeline event Pipeline is the pipeline's own UID.
type Event struct {
	Kind     EventKind
	UID      string
	Name     string
	Pipeline string
	Stage    string
	From     string
	To       string
	VTime    time.Time
	Attempt  int
}

// Terminal reports whether the event's To state is terminal for its kind.
// Tasks, stages and pipelines share their three terminal state names
// (core.TestEventTerminalMatchesStateMachines holds this to core's tables).
func (e Event) Terminal() bool {
	switch e.Kind {
	case EventTask, EventStage, EventPipeline:
		return e.To == "DONE" || e.To == "FAILED" || e.To == "CANCELED"
	}
	return false
}

// EventFilter selects which events a subscription receives, and is what an
// attach frame (0x35) carries. The zero value matches everything. Each
// non-empty constraint must hold (conjunction): Kinds restricts entity
// kinds, Pipeline restricts to one pipeline's events (the pipeline itself,
// its stages and its tasks), UIDs restricts to the listed entity UIDs.
// Buffer sets the capacity of the subscription's channel (default
// core.DefaultEventBuffer); once the consumer is Buffer events behind, each
// new event drops the oldest buffered one and advances the subscription's
// Dropped counter — publication never blocks the engine.
type EventFilter struct {
	Kinds    []EventKind
	Pipeline string
	UIDs     []string
	Buffer   int
}

// Match reports whether ev passes the filter.
func (f *EventFilter) Match(ev Event) bool {
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if k == ev.Kind {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Pipeline != "" && f.Pipeline != ev.Pipeline {
		return false
	}
	if len(f.UIDs) > 0 {
		ok := false
		for _, uid := range f.UIDs {
			if uid == ev.UID {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// EncodeAttach encodes an event-subscription request: the subscriber's
// filter, including the depth of its server-side ring.
func EncodeAttach(f EventFilter) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameAttach)
	buf = appendUvarint(buf, uint64(len(f.Kinds)))
	for _, k := range f.Kinds {
		buf = appendString(buf, string(k))
	}
	buf = appendString(buf, f.Pipeline)
	buf = appendUvarint(buf, uint64(len(f.UIDs)))
	for _, u := range f.UIDs {
		buf = appendString(buf, u)
	}
	buf = appendVarint(buf, int64(f.Buffer))
	return putBuf(bp, buf)
}

// DecodeAttach decodes an event-subscription request.
func DecodeAttach(body []byte) (EventFilter, error) {
	r, err := frameReader(body, FrameAttach)
	if err != nil {
		return EventFilter{}, err
	}
	var f EventFilter
	n, err := r.count(1)
	if err != nil {
		return EventFilter{}, err
	}
	if n > 0 {
		f.Kinds = make([]EventKind, n)
		for i := range f.Kinds {
			k, err := r.str()
			if err != nil {
				return EventFilter{}, err
			}
			f.Kinds[i] = EventKind(k)
		}
	}
	if f.Pipeline, err = r.str(); err != nil {
		return EventFilter{}, err
	}
	if n, err = r.count(1); err != nil {
		return EventFilter{}, err
	}
	if n > 0 {
		f.UIDs = make([]string, n)
		for i := range f.UIDs {
			if f.UIDs[i], err = r.str(); err != nil {
				return EventFilter{}, err
			}
		}
	}
	v, err := r.varint()
	if err != nil {
		return EventFilter{}, err
	}
	f.Buffer = int(v)
	return f, nil
}

// EncodeEventBatch encodes a server -> subscriber event batch.
func EncodeEventBatch(evs []Event) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameEventBatch)
	buf = appendUvarint(buf, uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		buf = appendString(buf, string(ev.Kind))
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
func DecodeEventBatch(body []byte) ([]Event, error) {
	r, err := frameReader(body, FrameEventBatch)
	if err != nil {
		return nil, err
	}
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	evs := make([]Event, n)
	for i := range evs {
		ev := &evs[i]
		kind, err := r.str()
		if err != nil {
			return nil, err
		}
		ev.Kind = EventKind(kind)
		for _, p := range []*string{&ev.UID, &ev.Name, &ev.Pipeline, &ev.Stage, &ev.From, &ev.To} {
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
