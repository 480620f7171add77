package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/broker"
	"repro/internal/journal"
	"repro/internal/msgcodec"
)

// SyncRequest asks AppManager's Synchronizer for one transition (paper Fig 2,
// arrow 6): of Stage, of Pipeline, or — when neither is set — of every task
// in Tasks, EnTK's bulk state updates, which keep the synchronization traffic
// O(stages), not O(tasks). Target is the state to move to; a task transition
// may piggyback its attempt's result.
type SyncRequest struct {
	Tasks    []*Task
	Stage    *Stage
	Pipeline *Pipeline
	Target   string
	ExitCode int
	ExecErr  string
}

// errHalted is the Synchronizer's answer once a whole-run cancel has begun:
// the run is being torn down, as the broker.ErrClosed a Pause or Resume meets
// later says.
var errHalted = fmt.Errorf("core: the run is canceled: %w", broker.ErrClosed)

// entity names the kind of entity req transitions, as the journal, the
// statedb mirror and the state store record it.
func (req *SyncRequest) entity() string {
	switch {
	case req.Stage != nil:
		return "stage"
	case req.Pipeline != nil:
		return "pipeline"
	}
	return "task"
}

// SyncFrame carries one component's transition requests to the Synchronizer
// as the value of one message on the states queue, and comes back to it as
// the value of one message on its Reply queue: the acknowledgement (Fig 2,
// arrow 7), with Err set to the first request that failed, nil when every
// one committed or was absorbed as a documented no-op. Batching requests into
// one frame is what turns a stage's synchronization traffic from O(tasks)
// round trips into O(1). The requester hands the frame over whole and must not
// touch it, or what its requests point at, until it has the frame back; the
// Synchronizer keeps nothing of it after handing it back.
type SyncFrame struct {
	Reply string
	Reqs  []SyncRequest
	Err   error
}

// StateStore is the external-database hook of the failure model (§II-B4).
// The Synchronizer mirrors every committed transition into it, and a
// restarted AppManager reacquires the latest task states from it when no
// journal is available. internal/statedb provides the reference
// implementation (the stack's MongoDB stand-in).
type StateStore interface {
	// SaveState commits one entity's state transition.
	SaveState(entity, uid, state string) error
	// LoadTaskStates returns the latest recorded state per task UID.
	LoadTaskStates() (map[string]string, error)
}

// synchronizer is the AppManager subcomponent that serializes every state
// transition, making AppManager "always up-to-date with any state change ...
// the only stateful component of EnTK" (§II-B3). Transitions are validated
// against the legal state machines, applied, journaled and acknowledged.
type synchronizer struct {
	am       *AppManager
	consumer *broker.Consumer
	wg       sync.WaitGroup

	// The loop goroutine's buffers, reused from request to request: the
	// transitions one committed, and what persist makes of them — the encoded
	// state records back to back in recBuf, recs naming each one for the
	// journal, uids for the mirror.
	commits []applied
	recBuf  []byte
	recs    [][]byte
	uids    []string
	// book holds the tally moves of the bulk task request being committed;
	// apply empties it before the request is persisted and acknowledged.
	book tallyBook
}

func newSynchronizer(am *AppManager) *synchronizer {
	return &synchronizer{am: am}
}

func (s *synchronizer) start() error {
	// Pull mode, one frame per pop: the loop goroutine takes frames off the
	// queue itself (no delivery goroutine and channel in between), and the
	// broker charges its modelled traversal once per frame.
	c, err := s.am.brk.ConsumeBatch(s.am.qname(qStates), 1)
	if err != nil {
		return err
	}
	s.consumer = c
	s.wg.Add(1)
	go s.loop()
	return nil
}

func (s *synchronizer) stop() {
	if s.consumer != nil {
		s.consumer.Cancel()
	}
	s.wg.Wait()
}

// loop drains the states queue one frame at a time. A frame carries every
// transition request one component issued in one synchronization round-trip
// (possibly several bulk requests), applied in order and answered with a
// single ack — the O(1)-per-stage sync path.
func (s *synchronizer) loop() {
	defer s.wg.Done()
	for {
		batch, err := s.consumer.ReceiveBatch(1)
		if err != nil {
			return // stopped, or the queue is gone
		}
		d := batch[0]
		frame := d.Value.(*SyncFrame) // this goroutine's until it is handed back
		frame.Err = nil
		for i := range frame.Reqs {
			if frame.Err = s.apply(&frame.Reqs[i]); frame.Err != nil {
				break
			}
		}
		d.Ack() //nolint:errcheck
		// Best effort: the reply queue disappears during tear-down.
		s.am.brk.PublishValue(frame.Reply, frame) //nolint:errcheck
	}
}

// The Synchronizer's cancellation and suspension semantics, applied as
// silent no-op acks so concurrent requesters never observe spurious
// rejections:
//
//   - sticky cancel: a CANCELED entity absorbs every later transition
//     request (the late completion or resubmission of a task whose
//     pipeline was canceled mid-flight must not fail the run);
//   - idempotent cancel: re-canceling DONE/terminal entities is a no-op;
//   - deferred completion: a DONE request against a SUSPENDED pipeline is
//     dropped, because Pause may commit between the WFProcessor's state
//     read and its completion request — Resume's nudge re-derives the
//     completion from the cursor.
//
// A whole-run cancel is not one of them: once it has begun
// (AppManager.halted) every request is refused with errHalted, so nothing
// commits — what its forced states set off included — and no requester goes
// on as if its transition had.

// taskSkip reports whether a task transition request is absorbed.
func taskSkip(current, target TaskState) bool {
	if current == TaskCanceled {
		return true // sticky
	}
	return target == TaskCanceled && current == TaskDone // idempotent
}

// stageSkip reports whether a stage transition request is absorbed.
func stageSkip(current, target StageState) bool {
	if current == StageCanceled {
		return true
	}
	return target == StageCanceled && current.Terminal()
}

// pipelineSkip reports whether a pipeline transition request is absorbed.
func pipelineSkip(current, target PipelineState) bool {
	if current == PipelineCanceled {
		return true
	}
	if target == PipelineCanceled && current.Terminal() {
		return true
	}
	return target == PipelineDone && current == PipelineSuspended // deferred
}

// applied is one transition that actually advanced (cancel no-ops are
// excluded), kept for journaling and event publication.
type applied struct {
	task  *Task
	stage *Stage
	pipe  *Pipeline
	uid   string
	from  string
}

// apply validates and commits one transition (or one batch of identical
// task transitions). Committed transitions are journaled, mirrored to the
// state store, and published on the event bus — in that order, so an event
// always describes a transition that was durably recorded.
func (s *synchronizer) apply(req *SyncRequest) error {
	am := s.am
	if am.halted.Load() {
		return errHalted
	}
	// A committed transition is listed only if something will read the list:
	// the journal or a state store, which the run has or has not, or an
	// event subscriber — and one may attach while the request is being
	// applied, so that is asked again after every commit.
	record := am.jrn != nil || am.cfg.StateStore != nil
	commits := s.commits[:0]
	var err error
	switch st, p := req.Stage, req.Pipeline; {
	case st != nil:
		prev := st.State()
		if stageSkip(prev, StageState(req.Target)) {
			break
		}
		if err = st.advance(StageState(req.Target)); err == nil {
			commits = append(commits, applied{stage: st, uid: st.UID, from: string(prev)})
		}
	case p != nil:
		prev := p.State()
		if pipelineSkip(prev, PipelineState(req.Target)) {
			break
		}
		if err = p.advance(PipelineState(req.Target)); err == nil {
			commits = append(commits, applied{pipe: p, uid: p.UID, from: string(prev)})
		}
	default:
		for _, t := range req.Tasks {
			prev, absorbed, cerr := t.commit(TaskState(req.Target), &s.book)
			if cerr != nil {
				err = cerr
				break
			}
			if absorbed {
				continue
			}
			if req.ExitCode != 0 || req.ExecErr != "" {
				t.setResult(req.ExitCode, req.ExecErr)
			}
			if record || am.eventsActive() {
				commits = append(commits, applied{task: t, uid: t.UID, from: string(prev)})
			}
		}
		// The tallies move once per stage, before anything reads this request's
		// commits as recorded, an event or an ack.
		s.book.apply()
	}
	s.commits = commits // keep what it grew to
	if err != nil {
		return err
	}
	if len(commits) > 0 && record {
		if err := s.persist(req, commits); err != nil {
			return err
		}
	}
	if am.eventsActive() {
		for _, c := range commits {
			switch {
			case c.task != nil:
				am.emitTask(c.task, TaskState(c.from), TaskState(req.Target))
			case c.stage != nil:
				am.emitStage(c.stage, StageState(c.from), StageState(req.Target))
			case c.pipe != nil:
				am.emitPipeline(c.pipe, PipelineState(c.from), PipelineState(req.Target))
			}
		}
	}
	return nil
}

// persist makes one request's committed transitions durable, whole request
// at a time: one journal write for all of its records, one locked pass over
// the statedb mirror, then the external state store, then the snapshot
// hook. A failure at any step rejects the frame; the state store and the
// snapshot only ever see transitions the journal already holds.
func (s *synchronizer) persist(req *SyncRequest, commits []applied) error {
	am := s.am
	entity := req.entity()
	if am.jrn != nil {
		// Durable mode: the journal, then the statedb mirror that feeds
		// snapshots — a mirror miss would snapshot stale state, so it rejects
		// the frame as a journal failure does. Every buffer starts empty, so a
		// request journals its own records whatever became of the one before
		// it, and is sized for the request first, so no append moves buf under
		// the records already carved from it.
		need := 0
		for _, c := range commits {
			need += msgcodec.StateRecSize(entity, c.uid, req.Target)
		}
		buf := slices.Grow(s.recBuf[:0], need)
		recs, uids := slices.Grow(s.recs[:0], len(commits)), slices.Grow(s.uids[:0], len(commits))
		for _, c := range commits {
			first := len(buf)
			buf = msgcodec.AppendStateRec(buf, entity, c.uid, req.Target)
			recs = append(recs, buf[first:len(buf):len(buf)])
			uids = append(uids, c.uid)
		}
		_, err := am.jrn.AppendRawBatch("state", recs)
		if err == nil {
			err = am.mirror.SaveStates(entity, uids, req.Target)
		}
		s.recBuf, s.recs, s.uids = buf, recs, uids
		if cap(buf) > journal.MaxRetainedScratch {
			s.recBuf, s.recs, s.uids = nil, nil, nil // a wide stage's bulk commit is not kept
		}
		if err != nil {
			return err
		}
	}
	if am.cfg.StateStore != nil {
		for _, c := range commits {
			if err := am.cfg.StateStore.SaveState(entity, c.uid, req.Target); err != nil {
				return err
			}
		}
	}
	// Snapshot hook: runs on the synchronizer goroutine — the sole journal
	// writer — so the watermark it reads bounds exactly the records
	// committed so far.
	am.maybeSnapshot(len(commits))
	return nil
}

// syncClient is a component-side handle for requesting transitions. Each
// subcomponent owns one client with a dedicated ack queue and issues frames
// serially, so it has one frame in flight, which it reuses from round trip to
// round trip and takes back off that queue itself (a pull-mode consumer). A
// frame is built with begin and the add* methods and sent with flush, or with
// send and then await when the caller has work to do while the Synchronizer
// commits it; related transitions a component used to issue as consecutive
// round-trips ride one frame, which is what keeps a stage's synchronization
// cost at O(1) frames instead of O(tasks).
type syncClient struct {
	am    *AppManager
	cons  *broker.Consumer
	frame SyncFrame // owner: the one goroutine that uses this client, except between send and await
	sent  bool      // the frame is with the Synchronizer
}

func newSyncClient(am *AppManager, replyQueue queueID) (*syncClient, error) {
	// The reply queue name travels inside the frame.
	reply := am.qname(replyQueue)
	c, err := am.brk.ConsumeBatch(reply, 1)
	if err != nil {
		return nil, err
	}
	return &syncClient{am: am, cons: c, frame: SyncFrame{Reply: reply}}, nil
}

func (c *syncClient) close() {
	if c.cons != nil {
		c.cons.Cancel()
	}
}

// begin starts a fresh frame.
func (c *syncClient) begin() { c.frame.Reqs = c.frame.Reqs[:0] }

// add appends one transition request to the frame under construction.
func (c *syncClient) add(req SyncRequest) { c.frame.Reqs = append(c.frame.Reqs, req) }

// addTasks appends one transition applied to every task of ts, which must not
// change until flush returns. An empty ts contributes nothing to the frame.
func (c *syncClient) addTasks(ts []*Task, to TaskState) {
	if len(ts) > 0 {
		c.add(SyncRequest{Tasks: ts, Target: string(to)})
	}
}

// addResult appends a task transition piggybacking result metadata.
func (c *syncClient) addResult(ts []*Task, to TaskState, exitCode int, execErr string) {
	c.add(SyncRequest{Tasks: ts, Target: string(to), ExitCode: exitCode, ExecErr: execErr})
}

func stageRequest(s *Stage, to StageState) SyncRequest {
	return SyncRequest{Stage: s, Target: string(to)}
}

func pipelineRequest(p *Pipeline, to PipelineState) SyncRequest {
	return SyncRequest{Pipeline: p, Target: string(to)}
}

// flush hands the frame under construction to the Synchronizer and waits to
// have it back acknowledged. An empty frame is a no-op.
func (c *syncClient) flush() error {
	if err := c.send(); err != nil {
		return err
	}
	return c.await()
}

// send hands the frame under construction to the Synchronizer. Until await
// returns, the caller must not touch the frame or the tasks' lists its
// requests carry. An empty frame is not sent.
func (c *syncClient) send() error {
	if len(c.frame.Reqs) == 0 {
		return nil
	}
	if err := c.am.brk.PublishValue(c.am.qname(qStates), &c.frame); err != nil {
		return err
	}
	c.sent = true
	return nil
}

// await waits to have the sent frame back acknowledged, and returns at once
// when send sent nothing.
func (c *syncClient) await() error {
	if !c.sent {
		return nil
	}
	c.sent = false
	acks, err := c.cons.ReceiveBatch(1)
	if err != nil {
		return err // broker.ErrClosed: the client or its queue is gone
	}
	acks[0].Ack() //nolint:errcheck
	if c.frame.Err != nil {
		return fmt.Errorf("core: transition rejected: %w", c.frame.Err)
	}
	return nil
}

// request sends one transition as its own frame and waits for the ack.
func (c *syncClient) request(req SyncRequest) error {
	c.begin()
	c.add(req)
	return c.flush()
}

// Convenience wrappers for single-transition frames.

func (c *syncClient) stage(s *Stage, to StageState) error {
	return c.request(stageRequest(s, to))
}

func (c *syncClient) pipeline(p *Pipeline, to PipelineState) error {
	return c.request(pipelineRequest(p, to))
}

// recoverFromStateStore reacquires the latest task states from the external
// database (§II-B4). Only DONE tasks are restored: the store holds no stage
// or pipeline state, so a CANCELED task, which journal recovery (openDurable)
// restores with its canceled pipeline, is re-scheduled with everything caught
// mid-flight by the normal path.
func (am *AppManager) recoverFromStateStore() error {
	states, err := am.cfg.StateStore.LoadTaskStates()
	if err != nil {
		return fmt.Errorf("core: state-store recovery: %w", err)
	}
	am.mu.Lock()
	defer am.mu.Unlock()
	for uid, state := range states {
		if TaskState(state) == TaskDone {
			am.restoreLocked("task", uid, state)
		}
	}
	return nil
}
