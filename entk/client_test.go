package entk_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/entk"
	"repro/internal/daemon"
	"repro/internal/rts"
)

// startDaemon brings up an entkd instance serving a unix socket in a temp
// directory and returns a dialed client.
func startDaemon(t *testing.T, mutate func(*daemon.Config)) (*daemon.Daemon, *entk.Client) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "entkd.sock")
	cfg := daemon.Config{
		SocketPath: sock,
		Resource:   "supermic",
		Cores:      16,
		Walltime:   72 * time.Hour,
		TimeScale:  time.Microsecond,
		Model:      rts.FastModel(),
		Seed:       11,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := d.Serve()
	if err != nil {
		d.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		d.Stop()
	})
	client, err := entk.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	return d, client
}

// clientApp builds an appjson document sized for the daemon's shared pilot.
func clientApp(cores, nTasks, durMS int) []byte {
	return []byte(fmt.Sprintf(
		`{"resource":{"name":"supermic","cores":%d,"walltime_s":3600},"pipelines":[{"name":"p","stages":[{"name":"s0","tasks":[{"name":"t","executable":"sleep","duration_s":%g,"cores":1,"copies":%d}]}]}]}`,
		cores, float64(durMS)/1000, nTasks))
}

// Four concurrent runs submitted over the socket share one broker and one
// pilot pool end to end: all reach DONE, the daemon's ledger drains to zero
// and no lease leaks.
func TestClientHostsFourConcurrentRuns(t *testing.T) {
	d, client := startDaemon(t, nil)
	ctx := context.Background()
	const runs = 4
	refs := make([]*entk.RunRef, runs)
	for i := range refs {
		ref, err := client.Submit(ctx, clientApp(4, 10, 5), entk.SubmitOptions{
			Tenant: fmt.Sprintf("tenant%d", i),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		refs[i] = ref
	}
	// All four must be tracked before any finishes is not guaranteed (fast
	// virtual tasks), but the daemon must have admitted all four.
	infos, err := client.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != runs {
		t.Fatalf("List: %d runs, want %d", len(infos), runs)
	}
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i, ref := range refs {
		wg.Add(1)
		go func(i int, ref *entk.RunRef) {
			defer wg.Done()
			errs[i] = ref.Wait(ctx)
		}(i, ref)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for _, ref := range refs {
		info, err := ref.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != daemon.StateDone {
			t.Fatalf("run %s: state %s, want DONE", ref.ID, info.State)
		}
	}
	if leaked := d.LeakedLeases(); leaked != 0 {
		t.Fatalf("leaked leases: %d", leaked)
	}
	if claimed := d.PoolClaimed(); claimed != 0 {
		t.Fatalf("claimed cores after all runs: %d", claimed)
	}
}

// The event stream delivers a run's task completions over its dedicated
// connection and closes cleanly when the run finishes.
func TestClientEventStream(t *testing.T) {
	_, client := startDaemon(t, nil)
	ctx := context.Background()
	// Tasks run long in virtual time (~50ms wall each at this timescale) so
	// the subscription lands before the first completion.
	const tasks = 8
	ref, err := client.Submit(ctx, clientApp(4, tasks, 50_000_000), entk.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	events, err := ref.Events(ctx, entk.EventTask)
	if err != nil {
		t.Fatal(err)
	}
	defer events.Close()
	if err := ref.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	done := 0
	for ev := range events.C() {
		if ev.Kind != entk.EventTask {
			t.Fatalf("filtered stream delivered %s event", ev.Kind)
		}
		if ev.To == "DONE" {
			done++
		}
	}
	if done != tasks {
		t.Fatalf("saw %d task completions, want %d", done, tasks)
	}
	if !events.Ended() || events.Dropped() != 0 {
		t.Fatalf("stream ended=%v with %d dropped, want its end frame with 0", events.Ended(), events.Dropped())
	}

	// A subscription the daemon refuses is the call's error, not a stream.
	if es, err := client.Events(ctx, "run.none"); err == nil || es != nil || !strings.Contains(err.Error(), "unknown run run.none") {
		t.Fatalf("Events on an unknown run: %v, %v; want the daemon's error and no stream", es, err)
	}
}

// Typed admission errors survive the socket round trip.
func TestClientAdmissionErrors(t *testing.T) {
	_, client := startDaemon(t, func(cfg *daemon.Config) {
		cfg.Cores = 4
		cfg.AdmissionQueueLen = -1 // reject instead of queueing
	})
	ctx := context.Background()
	if _, err := client.Submit(ctx, clientApp(8, 1, 1), entk.SubmitOptions{}); !errors.Is(err, entk.ErrAdmissionRejected) {
		t.Fatalf("oversized claim over socket: want ErrAdmissionRejected, got %v", err)
	}
	// Saturate, then the next submission must reject (queueing disabled).
	hog, err := client.Submit(ctx, clientApp(4, 32, 2_000_000), entk.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(ctx, clientApp(2, 1, 1), entk.SubmitOptions{}); !errors.Is(err, entk.ErrAdmissionRejected) {
		t.Fatalf("saturated submit: want ErrAdmissionRejected, got %v", err)
	}
	if err := hog.Cancel(ctx, "test over"); err != nil {
		t.Fatal(err)
	}
}

// Control operations (pause/resume/cancel) work through the socket and act
// on the addressed run only.
func TestClientControlOps(t *testing.T) {
	_, client := startDaemon(t, nil)
	ctx := context.Background()
	long, err := client.Submit(ctx, clientApp(4, 64, 2_000_000), entk.SubmitOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	short, err := client.Submit(ctx, clientApp(4, 8, 5), entk.SubmitOptions{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if err := short.Wait(ctx); err != nil {
		t.Fatalf("sibling run: %v", err)
	}
	if err := long.Cancel(ctx, "done testing"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := long.Wait(waitCtx); err == nil {
		t.Fatal("canceled run reported success")
	}
	info, err := client.Attach(long.ID).Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != daemon.StateCanceled {
		t.Fatalf("state %s, want CANCELED", info.State)
	}
}

// A socket operation gives up when its context does: the pending read is
// unblocked by closing the connection and the caller gets the context's
// error, not the read's.
func TestClientOpHonoursContext(t *testing.T) {
	_, client := startDaemon(t, nil)
	bg := context.Background()
	hog, err := client.Submit(bg, clientApp(4, 8, 2_000_000_000), entk.SubmitOptions{}) // 2 s of wall per task
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- hog.Wait(ctx) }()
	select {
	case err := <-returned:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Wait under an expired context: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Wait outlived its context")
	}
	// The context of a finished operation is let go of: canceling it later
	// must not touch anything.
	done, cancelDone := context.WithCancel(bg)
	if _, err := hog.Info(done); err != nil {
		t.Fatal(err)
	}
	cancelDone()
	if err := hog.Cancel(bg, "test over"); err != nil {
		t.Fatal(err)
	}
}
