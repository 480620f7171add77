// Command entk-agent hosts a pilot runtime system behind a network
// listener, the compute-node half of the networked control plane
// (docs/remote.md). A manager started with entk-run -agents (or an
// entk.AppConfig with RemoteAgents) connects, hands the agent task batches
// over internal/transport frames, and receives results and periodic
// capacity reports back.
//
//	entk-agent -listen tcp:127.0.0.1:0 [-resource titan] [-cores 64] [-scale 1ms]
//
// The agent prints "entk-agent: listening on <addr>" once ready — with an
// ephemeral port, parse that line to learn the bound address. One manager
// is served at a time: a new connection purges the running RTS instance
// (discarding its in-flight tasks) and builds a fresh one, so a failed-over
// manager can reconnect without risking double execution. -audit journals
// every RTS incarnation's store to <dir>/rts-audit-NNN.log for post-run
// exactly-once verification.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/remoterts"
	"repro/internal/rts"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams as parameters. It serves
// until SIGINT or SIGTERM and returns the exit code: 2 for a command line it
// cannot use, 1 for an agent that cannot start, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("entk-agent", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		listen    = flags.String("listen", "tcp:127.0.0.1:0", "listen address (tcp:host:port or unix:/path; port 0 picks an ephemeral port)")
		name      = flags.String("name", "", "agent name reported in handshakes (default: the listen address)")
		resource  = flags.String("resource", "titan", "CI whose batch system and cost model this agent simulates")
		cores     = flags.Int("cores", 64, "pilot size in cores")
		gpus      = flags.Int("gpus", 0, "pilot GPU count (0 = CI default per node)")
		walltime  = flags.Duration("walltime", 2*time.Hour, "pilot walltime (virtual)")
		scale     = flags.Duration("scale", time.Millisecond, "wall time per virtual second")
		scheds    = flags.Int("schedulers", 0, "agent scheduler loops (0 = auto, 1 = strict FIFO)")
		audit     = flags.String("audit", "", "directory for per-incarnation RTS audit logs (exactly-once verification)")
		heartbeat = flags.Duration("heartbeat", time.Second, "stats/keepalive interval (wall clock)")
		seed      = flags.Int64("seed", 0, "seed for the agent's stochastic models")
		compute   = flags.Bool("compute", false, "execute real workload kernels instead of modelled durations")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "entk-agent: %v\n", err)
		return 1
	}

	clock := vclock.NewScaled(*scale)
	// The same machine as the in-process stack, GPU defaulting included.
	machine, err := rts.NewMachine(rts.MachineConfig{
		Clock: clock,
		Seed:  *seed,
		Resources: []core.ResourceDesc{{
			Resource: *resource, Cores: *cores, GPUs: *gpus, Walltime: *walltime,
		}},
	})
	if err != nil {
		return fail(err)
	}
	defer machine.Close()
	pilot := machine.Resources[0]

	base := rts.Config{
		Clock:      clock,
		Session:    machine.Session,
		Registry:   workload.NewRegistry(),
		FS:         machine.FS,
		Compute:    *compute,
		Seed:       *seed,
		Schedulers: *scheds,
	}
	// Each manager connection builds a fresh RTS incarnation; with -audit,
	// each incarnation journals its store separately so the disjointness of
	// their push sets can be checked after the run.
	var incarnation atomic.Int64
	factory := func(res core.ResourceDesc) (core.RTS, error) {
		cfg := base
		cfg.Resource = res
		if *audit != "" {
			n := incarnation.Add(1)
			cfg.StorePath = filepath.Join(*audit, fmt.Sprintf("rts-audit-%03d.log", n))
		}
		return rts.New(cfg)
	}

	agentName := *name
	if agentName == "" {
		agentName = *listen
	}
	agent, err := remoterts.NewAgent(remoterts.AgentConfig{
		Addr:              *listen,
		Name:              agentName,
		Factory:           factory,
		Resource:          pilot,
		HeartbeatInterval: *heartbeat,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "entk-agent: listening on %s (%s, %d cores, %d gpus)\n",
		agent.Addr(), pilot.Resource, pilot.Cores, pilot.GPUs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		<-sig
		fmt.Fprintln(stdout, "entk-agent: shutting down")
		agent.Close()
	}()
	agent.Wait()
	fmt.Fprintf(stdout, "entk-agent: served %d task results over %d RTS incarnations\n",
		agent.Served(), agent.Incarnations())
	return 0
}
