package daemon

import (
	"bufio"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/msgcodec"
	"repro/internal/transport"
)

// A request that is not a msgcodec frame — here the retired JSON submit
// document — is answered with an "error" run-op, not left hanging, and
// admits nothing.
func TestServerRejectsJSONSubmit(t *testing.T) {
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.SocketPath = filepath.Join(t.TempDir(), "entkd.sock")
	})
	srv, err := d.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a hang fails the read below
	if err := transport.WriteFrame(conn, []byte(`{"tenant":"alice","app_json":"e30="}`)); err != nil {
		t.Fatal(err)
	}
	body, err := transport.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("no reply to a JSON submit: %v", err)
	}
	op, err := msgcodec.DecodeRunOp(body)
	if err != nil {
		t.Fatal(err)
	}
	if op.Op != "error" || op.OK || op.Err == "" {
		t.Fatalf("reply = %+v, want an error run-op", op)
	}
	if runs := d.List(); len(runs) != 0 {
		t.Fatalf("JSON submit admitted a run: %+v", runs)
	}
}

// roundTrip sends one request frame and returns every run-op the server
// answers with before it closes the connection, and the event frames (0x36,
// 0x37) among them.
func roundTrip(t *testing.T, srv *Server, req []byte) (ops []msgcodec.RunOp, events [][]byte) {
	t.Helper()
	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a hang fails the read below
	if err := transport.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	for r := bufio.NewReader(conn); ; {
		body, err := transport.ReadFrame(r)
		if err == io.EOF {
			return ops, events
		}
		if err != nil {
			t.Fatalf("after %d replies: %v", len(ops)+len(events), err)
		}
		if typ, _ := msgcodec.FrameType(body); typ == msgcodec.FrameEventBatch || typ == msgcodec.FrameEventEnd {
			events = append(events, body)
			continue
		}
		op, err := msgcodec.DecodeRunOp(body)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
}

// A run that is over has been reduced to its summary: no manager, no
// application, no lease. Every operation still has a defined answer over the
// socket, and none of them needs what was let go.
func TestServerAnswersForAFinishedRun(t *testing.T) {
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.SocketPath = filepath.Join(t.TempDir(), "entkd.sock")
	})
	srv, err := d.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const nTasks = 6
	sub, _ := roundTrip(t, srv, msgcodec.FormatBinary.EncodeDaemonSubmit(msgcodec.DaemonSubmit{
		Tenant: "alice", AppJSON: testApp(2, 1, nTasks, 1),
	}))
	if len(sub) != 1 || !sub[0].OK {
		t.Fatalf("submit: %+v", sub)
	}
	id := sub[0].RunID
	op := func(name string, strs ...string) ([]msgcodec.RunOp, [][]byte) {
		return roundTrip(t, srv, msgcodec.FormatBinary.EncodeRunOp(msgcodec.RunOp{Op: name, RunID: id, Strs: strs}))
	}
	if done, _ := op("wait"); len(done) != 1 || !done[0].OK || done[0].Strs[0] != StateDone {
		t.Fatalf("wait: %+v", done)
	}

	d.mu.Lock()
	e := d.runs[id]
	released := e.am == nil && e.run == nil && e.app == nil && e.lease == nil
	d.mu.Unlock()
	if !released {
		t.Fatalf("finished run still holds its manager, application or lease: %+v", e)
	}

	notRunning := "run " + id + " is not running (state DONE)"
	for _, tc := range []struct {
		op      string
		strs    []string
		reply   string
		ok      bool
		errPart string
		// ended: the reply is followed by exactly one event frame, the
		// stream's end with nothing dropped.
		ended bool
	}{
		{op: "cancel", strs: []string{"too late"}, reply: "cancel-ack", ok: true},
		{op: "events", reply: "events-ack", ok: true, ended: true},
		{op: "pause", strs: []string{"pipeline.000"}, reply: "pause-ack", errPart: notRunning},
		{op: "resume", strs: []string{"pipeline.000"}, reply: "resume-ack", errPart: notRunning},
		{op: "info", reply: "info-ack", ok: true},
		{op: "wait", reply: "done", ok: true},
	} {
		got, events := op(tc.op, tc.strs...)
		if tc.ended {
			if len(events) != 1 {
				t.Errorf("%s: %d event frames, want the end frame alone", tc.op, len(events))
			} else if dropped, err := msgcodec.DecodeEventEnd(events[0]); err != nil || dropped != 0 {
				t.Errorf("%s: end frame %d dropped, %v; want 0", tc.op, dropped, err)
			}
		} else if len(events) != 0 {
			t.Errorf("%s: %d event frames, want none", tc.op, len(events))
		}
		if len(got) != 1 {
			t.Errorf("%s: %d replies, want 1: %+v", tc.op, len(got), got)
			continue
		}
		r := got[0]
		if r.Op != tc.reply || r.OK != tc.ok || !strings.Contains(r.Err, tc.errPart) || (tc.errPart == "") != (r.Err == "") {
			t.Errorf("%s: reply %+v, want %s ok=%v err~%q", tc.op, r, tc.reply, tc.ok, tc.errPart)
		}
	}
	if info, err := d.Info(id); err != nil || info.State != StateDone || info.Err != "" {
		t.Errorf("a late cancel changed the run: %+v, %v", info, err)
	}

	prog, err := d.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if prog.TasksTotal != nTasks || prog.TasksDone != nTasks || prog.TaskAttempts != nTasks ||
		prog.TasksFailed != 0 || prog.TasksCanceled != 0 {
		t.Errorf("snapshot of a finished run: %+v", prog)
	}
}
