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
// pipeline shortly after the run starts — its entities reach terminal
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

// run is main with its inputs and outputs as parameters, as far as flag
// validation and -check go: those write to stdout and stderr and return the
// exit code. Past them — attaching, submitting, executing — it prints to the
// process's own streams and exits through fatal.
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
		cancelP  = flags.String("cancel", "", "cancel the named pipeline shortly after start")
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
	if *attach != "" {
		attachRemote(*attach, *verbose, *timeout)
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
		runViaDaemon(raw, desc, *dSock, *tenant, *jdir != "", *timeout, *progress, *verbose)
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
		fatal(err)
	}
	pipes, total, err := desc.Build()
	if err != nil {
		fatal(err)
	}
	if err := am.AddPipelines(pipes...); err != nil {
		fatal(err)
	}
	fmt.Printf("executing %d pipelines / %d tasks on %s (%d cores)\n",
		len(pipes), total, desc.Resource.Name, desc.Resource.Cores)

	// Subscribe before Start so the stream observes the very first
	// transition; the bounded ring means a slow terminal can never stall
	// the scheduler (late events are dropped and counted instead).
	var sub *entk.EventSub
	if *progress {
		kinds := []entk.EventKind{entk.EventStage, entk.EventPipeline}
		if *verbose {
			kinds = append(kinds, entk.EventTask)
		}
		if *autotune {
			kinds = append(kinds, entk.EventKnob)
		}
		sub = am.Subscribe(entk.EventFilter{Kinds: kinds})
	}

	var events *remoterts.EventServer
	if *evListen != "" {
		events, err = remoterts.NewEventServer(*evListen, am.Subscribe)
		if err != nil {
			fatal(err)
		}
		defer events.Close()
		am.AddEventPeerSource(events.PeerStats)
		fmt.Printf("event stream served on %s\n", events.Addr())
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
			fmt.Printf("resumed from %s: snapshot@%d, %d journal records replayed, %d tasks already done\n",
				*jdir, ri.SnapshotSeq, ri.ReplayedRecords, ri.TasksRecovered)
		}
	} else {
		run, runErr = am.Start(ctx)
	}
	if runErr == nil {
		if *cancelP != "" {
			go cancelByName(run, pipes, *cancelP)
		}
		if sub != nil {
			streamDone := make(chan struct{})
			go func() {
				defer close(streamDone)
				renderEvents(run, sub, *autotune)
			}()
			runErr = run.Wait()
			<-streamDone
			fmt.Printf("event stream: %d dropped (slow-subscriber policy)\n", sub.Dropped())
			renderStoreStats(os.Stdout, run.Snapshot().Store)
		} else {
			runErr = run.Wait()
		}
	}
	wall := time.Since(start)

	finalSnap := am.Snapshot()
	if *agents != "" {
		// The smoke harness greps this line: a non-zero stranded count
		// means results were lost between an agent and the manager.
		fmt.Printf("remote run: %d/%d tasks done, stranded frames: %d\n",
			finalSnap.TasksDone, finalSnap.TasksTotal, finalSnap.Utilization.TasksInFlight)
	}
	if *autotune {
		fmt.Printf("autotune: %d knob changes — final batch=%d schedulers=%d, %d event drops\n",
			finalSnap.KnobChanges, finalSnap.LiveBatchSize, finalSnap.LiveSchedulers, finalSnap.EventDrops)
	}
	for _, peer := range finalSnap.EventPeers {
		state := "attached"
		if !peer.Connected {
			state = "detached"
		}
		fmt.Printf("event peer %s: %d sent, %d dropped (%s)\n", peer.Peer, peer.Sent, peer.Dropped, state)
	}

	rep := am.Report()
	fmt.Printf("\nrun finished in %v wall time\n", wall.Round(time.Millisecond))
	fmt.Printf("  entk setup:      %8.2f s\n", rep.EnTKSetup)
	fmt.Printf("  entk management: %8.2f s\n", rep.EnTKManagement)
	fmt.Printf("  entk tear-down:  %8.2f s\n", rep.EnTKTeardown)
	fmt.Printf("  rts overhead:    %8.2f s\n", rep.RTSOverhead)
	fmt.Printf("  rts tear-down:   %8.2f s\n", rep.RTSTeardown)
	fmt.Printf("  data staging:    %8.2f s\n", rep.DataStaging)
	fmt.Printf("  task execution:  %8.2f s\n", rep.TaskExecution)

	if *verbose {
		for _, p := range pipes {
			fmt.Printf("pipeline %-24s %s\n", p.Name, p.State())
			for _, s := range p.Stages() {
				fmt.Printf("  stage %-24s %s\n", s.Name, s.State())
				for _, t := range s.Tasks() {
					fmt.Printf("    task %-22s %s (attempts %d, exit %d)\n",
						t.Name, t.State(), t.Attempts(), t.ExitCode())
				}
			}
		}
	}
	if runErr != nil {
		fatal(runErr)
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

// attachRemote subscribes to a remote run's event stream and renders it in
// the same format as -progress, ending with the server-side drop count.
func attachRemote(addr string, verbose bool, timeout time.Duration) {
	kinds := []entk.EventKind{entk.EventStage, entk.EventPipeline}
	if verbose {
		kinds = append(kinds, entk.EventTask)
	}
	es, err := remoterts.AttachEvents(addr, entk.EventFilter{Kinds: kinds}, 5*time.Second)
	if err != nil {
		fatal(err)
	}
	defer es.Close()
	fmt.Printf("attached to %s\n", addr)
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-es.C():
			if !ok {
				if es.Ended() {
					fmt.Printf("event stream ended: %d dropped server-side (slow-subscriber policy)\n", es.Dropped())
				} else {
					fmt.Println("event stream ended: connection lost")
				}
				return
			}
			vsec := ev.VTime.Sub(vclock.Epoch).Seconds()
			fmt.Printf("[%10.1fs] %-8s %-24s %s -> %s\n", vsec, ev.Kind, ev.Name, ev.From, ev.To)
		case <-deadline:
			fmt.Fprintln(os.Stderr, "entk-run: -attach timed out")
			return
		}
	}
}

// runViaDaemon submits the application to a running entkd service and waits
// for it to finish, optionally streaming the daemon's event feed.
func runViaDaemon(raw []byte, desc *appjson.App, socket, tenant string, journal bool, timeout time.Duration, progress, verbose bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	client, err := entk.Dial(socket)
	if err != nil {
		fatal(err)
	}
	ref, err := client.Submit(ctx, raw, entk.SubmitOptions{Tenant: tenant, Journal: journal})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("submitted %d pipelines to %s as %s (state %s)\n",
		len(desc.Pipelines), socket, ref.ID, ref.State)
	var events <-chan entk.Event
	var stop func()
	if progress {
		kinds := []entk.EventKind{entk.EventStage, entk.EventPipeline}
		if verbose {
			kinds = append(kinds, entk.EventTask)
		}
		events, stop, err = ref.Events(ctx, kinds...)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		if events == nil {
			return
		}
		for ev := range events {
			vsec := ev.VTime.Sub(vclock.Epoch).Seconds()
			fmt.Printf("[%10.1fs] %-8s %-24s %s -> %s\n", vsec, ev.Kind, ev.Name, ev.From, ev.To)
		}
	}()
	waitErr := ref.Wait(ctx)
	<-streamDone
	info, err := ref.Info(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("run %s finished: %s\n", ref.ID, info.State)
	if waitErr != nil {
		fatal(waitErr)
	}
}

// renderEvents prints each lifecycle transition as it commits, with a
// progress line from the run handle's snapshot whenever a stage or
// pipeline reaches a terminal state. With autotune on, knob events arrive
// interleaved and each progress line carries the live knob values.
func renderEvents(run *entk.Run, sub *entk.EventSub, autotune bool) {
	for ev := range sub.C() {
		vsec := ev.VTime.Sub(vclock.Epoch).Seconds()
		fmt.Printf("[%10.1fs] %-8s %-24s %s -> %s\n", vsec, ev.Kind, ev.Name, ev.From, ev.To)
		if ev.Terminal() && ev.Kind != entk.EventTask {
			snap := run.Snapshot()
			fmt.Printf("[%10.1fs] progress  %d/%d tasks done (%d failed, %d canceled), %d/%d cores busy\n",
				vsec, snap.TasksDone, snap.TasksTotal, snap.TasksFailed, snap.TasksCanceled,
				snap.Utilization.CoresBusy, snap.Utilization.CoresTotal)
			if autotune {
				fmt.Printf("[%10.1fs] knobs     batch=%d schedulers=%d (%d changes, %d event drops)\n",
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

// cancelByName cancels the pipeline with the given name once it has tasks
// in flight, demonstrating partial cancellation: the pipeline lands in
// CANCELED while its siblings run to completion.
func cancelByName(run *entk.Run, pipes []*entk.Pipeline, name string) {
	for _, p := range pipes {
		if p.Name != name {
			continue
		}
		time.Sleep(50 * time.Millisecond)
		if err := run.CancelPipeline(p.UID); err != nil {
			fmt.Fprintf(os.Stderr, "entk-run: cancel %s: %v\n", name, err)
		} else {
			fmt.Printf("canceled pipeline %q (siblings keep running)\n", name)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "entk-run: -cancel: no pipeline named %q\n", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "entk-run: %v\n", err)
	os.Exit(1)
}
