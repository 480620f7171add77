// Command entk-run executes a PST application described in JSON on a
// simulated computing infrastructure — the command-line face of the public
// entk API. The document format is defined by internal/appjson:
//
//	{
//	  "resource": {"name": "titan", "cores": 64, "walltime_s": 7200},
//	  "task_retries": 2,
//	  "pipelines": [{
//	    "name": "md",
//	    "stages": [{
//	      "name": "sim",
//	      "tasks": [{"name": "replica", "executable": "mdrun",
//	                 "duration_s": 600, "cores": 1, "copies": 16}]
//	    }]
//	  }]
//	}
//
// Run with:
//
//	entk-run -app app.json [-scale 1ms] [-v] [-check] [-progress] [-cancel name] [-schedulers n] [-autotune]
//
// -progress streams the run's lifecycle transitions live (stage and
// pipeline events, plus task events with -v) and periodic completion
// counts from the run handle's Snapshot. -cancel cancels the named
// pipeline as soon as one of its tasks moves — its entities reach terminal
// CANCELED states while sibling pipelines execute to completion.
//
// -journal <dir> makes the run durable: every committed transition lands
// in a segmented journal with periodic snapshots (docs/recovery.md). After
// a crash, -resume with the same -journal directory continues the run
// without re-executing completed tasks.
//
// -agents <addr,addr> executes on remote entk-agent processes instead of an
// in-process runtime system: task batches are shipped over the wire, and
// the post-run summary reports how many tasks finished and whether any
// frames were stranded in flight. -events-listen <addr> serves this run's
// event stream to remote subscribers; a second entk-run invoked with
// -attach <addr> (no -app needed) renders that stream live, ending with the
// server-side drop count for its subscription.
//
// -autotune turns on the live knob controller (docs/autotune.md): a
// per-run goroutine samples queue depths, steal ratios, dispatch latency
// and event drops, and steers the broker batch size and scheduler-pool
// size while the run executes. Knob decisions appear in -progress as
// "knob" events, and the progress line grows a live-knob summary.
//
// -daemon <socket> submits the application to a running entkd service
// instead of executing it in-process: the run shares the daemon's pilot
// pool with other tenants' runs (-tenant names the submitter for fairness
// and quota accounting). -progress streams the daemon's event feed; with
// -journal (any value) the daemon journals the run under its own root.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/entk"
	"repro/internal/appjson"
	"repro/internal/remoterts"
	"repro/internal/vclock"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters: it writes to stdout
// and stderr and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("entk-run", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		appPath  = flags.String("app", "", "path to the JSON application description (required)")
		scale    = flags.Duration("scale", time.Millisecond, "wall time per virtual second")
		verbose  = flags.Bool("v", false, "print per-entity final states (with -progress: also task events)")
		timeout  = flags.Duration("timeout", 10*time.Minute, "wall-clock execution timeout")
		check    = flags.Bool("check", false, "validate the application description and exit")
		progress = flags.Bool("progress", false, "stream live lifecycle transitions and progress")
		cancelP  = flags.String("cancel", "", "cancel the named pipeline once its first task is in flight")
		scheds   = flags.Int("schedulers", 0, "agent scheduler loops draining the task store (0 = min(GOMAXPROCS, shards), 1 = strict-FIFO single scheduler)")
		autotune = flags.Bool("autotune", false, "enable the live knob controller: steer batch size and scheduler pool from runtime stats (docs/autotune.md)")
		jdir     = flags.String("journal", "", "directory for the durable state journal (segments + snapshots + RTS audit); enables crash recovery")
		resume   = flags.Bool("resume", false, "continue the journaled run found in -journal (completed tasks are not re-executed)")
		dSock    = flags.String("daemon", "", "submit to the entkd service at this unix socket instead of running in-process")
		tenant   = flags.String("tenant", "", "tenant name for daemon submissions (fairness weight and quota accounting)")
		agents   = flags.String("agents", "", "comma-separated entk-agent addresses; run on remote agents instead of an in-process RTS")
		evListen = flags.String("events-listen", "", "serve this run's event stream to remote subscribers on this address")
		attach   = flags.String("attach", "", "attach to a remote run's event stream at this address and render it (no -app needed)")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "entk-run: %v\n", err)
		return 1
	}
	kinds := progressKinds(*verbose, *autotune)
	if *attach != "" {
		if err := attachRemote(stdout, *attach, kinds, *timeout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *appPath == "" {
		fmt.Fprintln(stderr, "entk-run: -app is required (see -h)")
		return 2
	}
	if *resume && *jdir == "" {
		fmt.Fprintln(stderr, "entk-run: -resume requires -journal (see -h)")
		return 2
	}
	raw, err := os.ReadFile(*appPath)
	if err != nil {
		return fail(err)
	}
	desc, err := appjson.Parse(raw)
	if err != nil {
		return fail(err)
	}
	if *check {
		pipes, total, err := desc.Build()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: valid — %d pipelines / %d tasks on %s (%d cores)\n",
			*appPath, len(pipes), total, desc.Resource.Name, desc.Resource.Cores)
		return 0
	}
	if *dSock != "" {
		if !*progress {
			kinds = nil
		}
		if err := runViaDaemon(stdout, raw, desc, *dSock, *tenant, *jdir != "", *timeout, kinds); err != nil {
			return fail(err)
		}
		return 0
	}
	am, err := entk.NewAppManager(entk.AppConfig{
		Resource: entk.Resource{
			Name:     desc.Resource.Name,
			Cores:    desc.Resource.Cores,
			GPUs:     desc.Resource.GPUs,
			Walltime: desc.Walltime(),
			Queue:    desc.Resource.Queue,
			Project:  desc.Resource.Project,
		},
		TimeScale:    *scale,
		TaskRetries:  desc.TaskRetries,
		Seed:         desc.Seed,
		Tuning:       entk.Tuning{SchedulerWorkers: *scheds, Autotune: entk.Autotune{Enabled: *autotune}},
		JournalDir:   *jdir,
		RemoteAgents: splitAddrs(*agents),
	})
	if err != nil {
		return fail(err)
	}
	pipes, total, err := desc.Build()
	if err != nil {
		return fail(err)
	}
	if err := am.AddPipelines(pipes...); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "executing %d pipelines / %d tasks on %s (%d cores)\n",
		len(pipes), total, desc.Resource.Name, desc.Resource.Cores)

	// Subscribe before Start so the stream observes the very first
	// transition; the bounded buffer means a slow terminal can never stall
	// the scheduler (late events are dropped and counted instead).
	var sub *entk.EventSub
	if *progress {
		sub = am.Subscribe(entk.EventFilter{Kinds: kinds})
	}
	// -cancel watches the named pipeline's task events from before Start too,
	// so its first task to move — the pipeline has work in flight — is seen.
	var cancelSub *entk.EventSub
	if *cancelP != "" {
		for _, p := range pipes {
			if p.Name == *cancelP {
				cancelSub = am.Subscribe(entk.EventFilter{Pipeline: p.UID, Kinds: []entk.EventKind{entk.EventTask}})
				break
			}
		}
		if cancelSub == nil {
			fmt.Fprintf(stderr, "entk-run: -cancel: no pipeline named %q\n", *cancelP)
		}
	}

	var events *remoterts.EventServer
	if *evListen != "" {
		events, err = remoterts.NewEventServer(*evListen, am.Subscribe)
		if err != nil {
			return fail(err)
		}
		defer events.Close()
		fmt.Fprintf(stdout, "event stream served on %s\n", events.Addr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	var run *entk.Run
	var runErr error
	if *resume {
		run, runErr = am.Resume(ctx, *jdir)
		if runErr == nil {
			ri := am.Core().RecoveryInfo()
			fmt.Fprintf(stdout, "resumed from %s: snapshot@%d, %d journal records replayed, %d tasks already done\n",
				*jdir, ri.SnapshotSeq, ri.ReplayedRecords, ri.TasksRecovered)
		}
	} else {
		run, runErr = am.Start(ctx)
	}
	if runErr == nil {
		var canceled bool
		var cancelErr error
		cancelDone := make(chan struct{})
		if cancelSub != nil {
			go func() {
				defer close(cancelDone)
				canceled, cancelErr = cancelOnFirstTask(run, cancelSub)
			}()
		} else {
			close(cancelDone)
		}
		if sub != nil {
			streamDone := make(chan struct{})
			go func() {
				defer close(streamDone)
				renderEvents(stdout, run, sub, *autotune)
			}()
			runErr = run.Wait()
			<-streamDone
			fmt.Fprintf(stdout, "event stream: %d dropped (slow-subscriber policy)\n", sub.Dropped())
			renderStoreStats(stdout, run.Snapshot().Store)
		} else {
			runErr = run.Wait()
		}
		<-cancelDone // the stream closes when the run ends
		switch {
		case cancelErr != nil:
			fmt.Fprintf(stderr, "entk-run: cancel %s: %v\n", *cancelP, cancelErr)
		case canceled:
			fmt.Fprintf(stdout, "canceled pipeline %q (siblings kept running)\n", *cancelP)
		}
	}
	wall := time.Since(start)

	finalSnap := am.Snapshot()
	if *agents != "" {
		// The smoke harness greps this line: a non-zero stranded count
		// means results were lost between an agent and the manager.
		fmt.Fprintf(stdout, "remote run: %d/%d tasks done, stranded frames: %d\n",
			finalSnap.TasksDone, finalSnap.TasksTotal, finalSnap.Utilization.TasksInFlight)
	}
	if *autotune {
		fmt.Fprintf(stdout, "autotune: %d knob changes — final batch=%d schedulers=%d, %d event drops\n",
			finalSnap.KnobChanges, finalSnap.LiveBatchSize, finalSnap.LiveSchedulers, finalSnap.EventDrops)
	}
	if events != nil {
		for _, peer := range events.PeerStats() {
			state := "attached"
			if !peer.Connected {
				state = "detached"
			}
			fmt.Fprintf(stdout, "event peer %s: %d sent, %d dropped (%s)\n", peer.Peer, peer.Sent, peer.Dropped, state)
		}
	}

	rep := am.Report()
	fmt.Fprintf(stdout, "\nrun finished in %v wall time\n", wall.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  entk setup:      %8.2f s\n", rep.EnTKSetup)
	fmt.Fprintf(stdout, "  entk management: %8.2f s\n", rep.EnTKManagement)
	fmt.Fprintf(stdout, "  entk tear-down:  %8.2f s\n", rep.EnTKTeardown)
	fmt.Fprintf(stdout, "  rts overhead:    %8.2f s\n", rep.RTSOverhead)
	fmt.Fprintf(stdout, "  rts tear-down:   %8.2f s\n", rep.RTSTeardown)
	fmt.Fprintf(stdout, "  data staging:    %8.2f s\n", rep.DataStaging)
	fmt.Fprintf(stdout, "  task execution:  %8.2f s\n", rep.TaskExecution)

	if *verbose {
		for _, p := range pipes {
			fmt.Fprintf(stdout, "pipeline %-24s %s\n", p.Name, p.State())
			for _, s := range p.Stages() {
				fmt.Fprintf(stdout, "  stage %-24s %s\n", s.Name, s.State())
				for _, t := range s.Tasks() {
					fmt.Fprintf(stdout, "    task %-22s %s (attempts %d, exit %d)\n",
						t.Name, t.State(), t.Attempts(), t.ExitCode())
				}
			}
		}
	}
	if runErr != nil {
		return fail(runErr)
	}
	return 0
}

// splitAddrs parses the -agents list.
func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// progressKinds is what -progress and -attach print: stage and pipeline
// transitions, plus task transitions with -v and knob decisions with
// -autotune.
func progressKinds(verbose, autotune bool) []entk.EventKind {
	kinds := []entk.EventKind{entk.EventStage, entk.EventPipeline}
	if verbose {
		kinds = append(kinds, entk.EventTask)
	}
	if autotune {
		kinds = append(kinds, entk.EventKnob)
	}
	return kinds
}

// printEvent prints one lifecycle transition, the line every event feed
// renders.
func printEvent(w io.Writer, ev entk.Event) {
	vsec := ev.VTime.Sub(vclock.Epoch).Seconds()
	fmt.Fprintf(w, "[%10.1fs] %-8s %-24s %s -> %s\n", vsec, ev.Kind, ev.Name, ev.From, ev.To)
}

// printStream prints a socket-borne event feed until it ends, then how it
// ended: with the server-side drop count, or with the connection lost.
func printStream(w io.Writer, es *entk.EventStream) {
	for ev := range es.C() {
		printEvent(w, ev)
	}
	if es.Ended() {
		fmt.Fprintf(w, "event stream ended: %d dropped server-side (slow-subscriber policy)\n", es.Dropped())
	} else {
		fmt.Fprintln(w, "event stream ended: connection lost")
	}
}

// attachRemote subscribes to a remote run's event stream and prints it until
// the stream ends; after timeout it detaches and reports so.
func attachRemote(w io.Writer, addr string, kinds []entk.EventKind, timeout time.Duration) error {
	es, err := remoterts.AttachEvents(addr, entk.EventFilter{Kinds: kinds}, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "attached to %s\n", addr)
	expired := time.AfterFunc(timeout, es.Close)
	printStream(w, es)
	if !expired.Stop() {
		return errors.New("-attach timed out")
	}
	return nil
}

// runViaDaemon submits the application to a running entkd service and waits
// for it to finish, printing the daemon's event feed of kinds (none if
// kinds is nil) until the run ends it.
func runViaDaemon(w io.Writer, raw []byte, desc *appjson.App, socket, tenant string, journal bool, timeout time.Duration, kinds []entk.EventKind) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	client, err := entk.Dial(socket)
	if err != nil {
		return err
	}
	ref, err := client.Submit(ctx, raw, entk.SubmitOptions{Tenant: tenant, Journal: journal})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "submitted %d pipelines to %s as %s (state %s)\n",
		len(desc.Pipelines), socket, ref.ID, ref.State)
	if kinds != nil {
		es, err := ref.Events(ctx, kinds...)
		if err != nil {
			return err
		}
		printStream(w, es)
	}
	waitErr := ref.Wait(ctx)
	info, err := ref.Info(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "run %s finished: %s\n", ref.ID, info.State)
	return waitErr
}

// renderEvents prints each lifecycle transition as it commits, with a
// progress line from the run handle's snapshot whenever a stage or
// pipeline reaches a terminal state. With autotune on, knob events arrive
// interleaved and each progress line carries the live knob values.
func renderEvents(w io.Writer, run *entk.Run, sub *entk.EventSub, autotune bool) {
	for ev := range sub.C() {
		printEvent(w, ev)
		if ev.Terminal() && ev.Kind != entk.EventTask {
			vsec := ev.VTime.Sub(vclock.Epoch).Seconds()
			snap := run.Snapshot()
			fmt.Fprintf(w, "[%10.1fs] progress  %d/%d tasks done (%d failed, %d canceled), %d/%d cores busy\n",
				vsec, snap.TasksDone, snap.TasksTotal, snap.TasksFailed, snap.TasksCanceled,
				snap.Utilization.CoresBusy, snap.Utilization.CoresTotal)
			if autotune {
				fmt.Fprintf(w, "[%10.1fs] knobs     batch=%d schedulers=%d (%d changes, %d event drops)\n",
					vsec, snap.LiveBatchSize, snap.LiveSchedulers, snap.KnobChanges, snap.EventDrops)
			}
		}
	}
}

// renderStoreStats summarizes the agent's scheduler pool after a -progress
// run: loop count, per-loop dispatch tallies and shard work-stealing.
func renderStoreStats(w io.Writer, st entk.StoreStats) {
	if st.Schedulers == 0 {
		return
	}
	var pulls, dispatched uint64
	for _, n := range st.SchedulerPulls {
		pulls += n
	}
	for _, n := range st.SchedulerDispatches {
		dispatched += n
	}
	fmt.Fprintf(w, "scheduler pool: %d loops over %d store shards — %d pulls (%d steals), %d tasks dispatched\n",
		st.Schedulers, st.Shards, pulls, st.Steals, dispatched)
}

// cancelOnFirstTask cancels the pipeline sub watches on its first task
// event, once the pipeline has work in flight, demonstrating partial
// cancellation: the pipeline lands in CANCELED while its siblings run to
// completion. A stream that closes first — the run ended before the pipeline
// started — cancels nothing and is no error.
func cancelOnFirstTask(run *entk.Run, sub *entk.EventSub) (bool, error) {
	defer sub.Close()
	ev, ok := <-sub.C()
	if !ok {
		return false, nil
	}
	return true, run.CancelPipeline(ev.Pipeline)
}
