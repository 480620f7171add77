// Command entkd runs the EnTK service daemon: a long-lived process hosting
// many concurrent PST applications over one shared pilot pool
// (docs/daemon.md). Clients submit appjson documents over the
// unix socket with entk.Client or `entk-run -daemon`; each submission
// becomes an isolated run drawing cores from the shared pilot under
// per-tenant weighted-fair dispatch and quota enforcement.
//
// Run with:
//
//	entkd -socket /tmp/entkd.sock -resource titan -cores 64 [-tenants alice:3:32,bob:1:0]
//
// -tenants configures fairness as name:weight[:maxcores] triples; unknown
// tenants default to weight 1 with no quota. The daemon serves until
// SIGINT/SIGTERM, then cancels hosted runs and reports how many leases
// leaked, that is, outlived their run (0 on a clean lifecycle).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams as parameters. It serves
// until SIGINT or SIGTERM and returns the exit code: 2 for a command line it
// cannot use, 1 for a daemon that cannot start or that leaked a lease, 0
// otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("entkd", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		socket     = flags.String("socket", "", "unix socket path to serve (required)")
		resource   = flags.String("resource", "titan", "catalogued CI hosting the shared pilot")
		cores      = flags.Int("cores", 64, "shared pilot cores")
		gpus       = flags.Int("gpus", 0, "shared pilot GPUs (0 = CI default)")
		walltime   = flags.Duration("walltime", 0, "shared pilot walltime (virtual; 0 = the resource's cap)")
		scale      = flags.Duration("scale", time.Millisecond, "wall time per virtual second")
		tenants    = flags.String("tenants", "", "tenant fairness spec: name:weight[:maxcores],...")
		overcommit = flags.Float64("overcommit", 1.0, "lease admission factor over physical cores (>= 1)")
		queueLen   = flags.Int("queue", 16, "admission queue length (-1 disables queueing)")
		retention  = flags.Duration("retention", time.Hour, "how long terminal runs stay listed")
		jroot      = flags.String("journal-root", "", "root directory for per-run journals (enables journaled submissions)")
		scheds     = flags.Int("schedulers", 0, "agent scheduler loops per hosted run (0 = auto)")
		seed       = flags.Int64("seed", 0, "seed for stochastic models")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *socket == "" {
		fmt.Fprintln(stderr, "entkd: -socket is required (see -h)")
		return 2
	}
	if *scheds < 0 {
		fmt.Fprintf(stderr, "entkd: -schedulers %d: negative (0 selects the default)\n", *scheds)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "entkd: %v\n", err)
		return 1
	}
	tcfg, err := parseTenants(*tenants)
	if err != nil {
		return fail(err)
	}
	d, err := daemon.New(daemon.Config{
		SocketPath:        *socket,
		Resource:          *resource,
		Cores:             *cores,
		GPUs:              *gpus,
		Walltime:          *walltime,
		TimeScale:         *scale,
		Tenants:           tcfg,
		OvercommitFactor:  *overcommit,
		AdmissionQueueLen: *queueLen,
		RunRetention:      *retention,
		JournalRoot:       *jroot,
		SchedulerWorkers:  *scheds,
		Seed:              *seed,
	})
	if err != nil {
		return fail(err)
	}
	// Caught from before the socket is bound: a client that can connect can
	// also stop the daemon cleanly.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	srv, err := d.Serve()
	if err != nil {
		d.Stop()
		return fail(err)
	}
	fmt.Fprintf(stdout, "entkd: serving %s (%d cores) on %s\n", *resource, *cores, srv.Addr())

	sig := <-sigCh
	fmt.Fprintf(stdout, "entkd: %s — draining %d runs\n", sig, len(d.List()))
	srv.Close()
	d.Stop()
	fmt.Fprintf(stdout, "leaked leases: %d\n", d.LeakedLeases())
	if d.LeakedLeases() != 0 {
		return 1
	}
	return 0
}

// parseTenants decodes "name:weight[:maxcores]" triples.
func parseTenants(spec string) (map[string]daemon.TenantConfig, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]daemon.TenantConfig)
	for _, item := range strings.Split(spec, ",") {
		parts := strings.Split(item, ":")
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("bad tenant spec %q (want name:weight[:maxcores])", item)
		}
		w, err := strconv.Atoi(parts[1])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad tenant weight in %q", item)
		}
		tc := daemon.TenantConfig{Weight: w}
		if len(parts) == 3 {
			mc, err := strconv.Atoi(parts[2])
			if err != nil || mc < 0 {
				return nil, fmt.Errorf("bad tenant core cap in %q", item)
			}
			tc.MaxCores = mc
		}
		out[parts[0]] = tc
	}
	return out, nil
}
