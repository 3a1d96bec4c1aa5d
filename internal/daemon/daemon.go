// Package daemon is the one harness every lonviz command runs under. It
// owns what each main used to wire by hand: the six observability flags,
// the event logger, the SLO stack (slo.Start), the "metrics on" line,
// SIGINT/SIGTERM and the bounded Close, and the exit status. A main keeps
// only its own flags and its body. The package also holds the two pieces
// several mains share: the admission-control flags (Admission) and the
// L-Bone announce sequence (Announce), plus the one meaning of
// -pipeline-window (PipelineWindow).
package daemon

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/obs"
	"lonviz/internal/obs/slo"
	"lonviz/internal/overload"
)

const (
	// closeTimeout bounds how long Run waits for the observability stack
	// to shut down once the body has returned.
	closeTimeout = 3 * time.Second
	// registerTimeout bounds Announce's first, synchronous registration.
	registerTimeout = 10 * time.Second
)

// Body is a command's own work. A serving daemon returns once ctx ends
// (SIGINT or SIGTERM); a run-to-completion command returns when it is
// done. A non-nil error is printed as "<name>: <err>" and exits 1.
type Body func(ctx context.Context, stack *slo.Stack) error

// Daemon is one command's harness: New registers its flags, the main
// calls flag.Parse, and Run does the rest.
type Daemon struct {
	Name string
	// Rules are evaluated by the stack's engine beside its node rules (see
	// slo.Options); set them before Run.
	Rules []slo.Rule

	fs                  *flag.FlagSet
	opts                slo.Options
	logLevel, logFormat string
}

// New registers the six observability flags on flag.CommandLine for the
// command called name. Call it before flag.Parse.
func New(name string) *Daemon { return newOn(flag.CommandLine, name) }

func newOn(fs *flag.FlagSet, name string) *Daemon {
	d := &Daemon{Name: name, fs: fs}
	fs.StringVar(&d.opts.Addr, "metrics-addr", "", "serve /metrics and /debug/pprof on this address (empty disables)")
	fs.StringVar(&d.opts.RulesPath, "slo-config", "", "JSON SLO rule file (empty: built-in rules; needs -metrics-addr)")
	fs.BoolVar(&d.opts.ProfRates, "prof-rates", false, "enable mutex/block profiling rates (contention evidence in capture bundles)")
	fs.DurationVar(&d.opts.SampleInterval, "tsdb-interval", time.Second, "metrics history sampling interval (/debug/tsdb retention scales with it)")
	fs.StringVar(&d.logLevel, "log-level", "info", "event log level: debug|info|warn|error")
	fs.StringVar(&d.logFormat, "log-format", "kv", "event log line format: kv|json")
	return d
}

// MetricsAddr is the -metrics-addr value (empty: the stack is off).
func (d *Daemon) MetricsAddr() string { return d.opts.Addr }

// Run configures the logger, starts the stack, runs body under a context
// that SIGINT and SIGTERM cancel, closes the stack within closeTimeout,
// and exits: 0 when body returned nil, 1 otherwise. After the first
// signal a second one kills the process the default way.
func (d *Daemon) Run(body Body) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() { <-ctx.Done(); stop() }()
	if err := d.run(ctx, body); err != nil {
		log.Printf("%s: %v", d.Name, err)
		os.Exit(1)
	}
	os.Exit(0)
}

func (d *Daemon) run(ctx context.Context, body Body) error {
	if err := obs.ConfigureDefaultLogger(d.logLevel, d.logFormat); err != nil {
		return err
	}
	opts := d.opts
	opts.Rules = d.Rules
	stack, err := slo.Start(opts)
	if err != nil {
		return fmt.Errorf("metrics listen: %w", err)
	}
	if stack.Enabled() {
		fmt.Printf("%s: metrics on http://%s/metrics (pprof at /debug/pprof/)\n", d.Name, stack.Addr())
	}
	err = body(ctx, stack)
	closeCtx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	_ = stack.Close(closeCtx)
	return err
}

// Admission is the admission-control flag trio of a serving daemon.
type Admission struct {
	name     string
	inflight int
	queue    int
	wait     time.Duration
}

// Admission registers -max-inflight, -max-queue and -max-queue-wait. Call
// it before flag.Parse; Gate builds what they describe.
func (d *Daemon) Admission() *Admission {
	a := &Admission{name: d.Name}
	d.fs.IntVar(&a.inflight, "max-inflight", 0, "admission control: max concurrently executing requests (0 = unlimited)")
	d.fs.IntVar(&a.queue, "max-queue", 0, "admission control: max requests waiting for a slot before shedding with BUSY")
	d.fs.DurationVar(&a.wait, "max-queue-wait", 100*time.Millisecond, "admission control: max time a request may queue before shedding with BUSY")
	return a
}

// Gate returns the configured gate and prints its limits, or nil (no
// admission control) when -max-inflight is 0.
func (a *Admission) Gate() *overload.Gate {
	if a.inflight <= 0 {
		return nil
	}
	fmt.Printf("%s: admission control: %d in-flight, %d queued, %v max wait\n", a.name, a.inflight, a.queue, a.wait)
	return overload.NewGate(a.inflight, a.queue, a.wait)
}

// PipelineWindow registers -pipeline-window with the one rule every
// command shares: default ibp.DefaultPipelineWindow, and 0 or negative
// means serial (pipelining off). The returned func reads the value in the
// library's spelling, where off is negative because a library 0 means
// "default".
func (d *Daemon) PipelineWindow(usage string) func() int {
	w := d.fs.Int("pipeline-window", ibp.DefaultPipelineWindow, usage)
	return func() int {
		if *w <= 0 {
			return -1
		}
		return *w
	}
}

// Announce is the one L-Bone announce sequence: it marks the stack
// "registering with L-Bone", registers rec once (bounded by
// registerTimeout; a failure is logged and left to the heartbeat), then
// heartbeats rec every interval until ctx ends. rec's MetricsAddr is
// filled from the stack, so a fleet scraper can discover this process.
func (d *Daemon) Announce(ctx context.Context, stack *slo.Stack, baseURL string, every time.Duration, rec func() lbone.DepotRecord) {
	cl := &lbone.Client{BaseURL: baseURL}
	record := func() lbone.DepotRecord {
		r := rec()
		r.MetricsAddr = stack.Addr()
		return r
	}
	stack.SetStatus("registering with L-Bone")
	first := record()
	regCtx, cancel := context.WithTimeout(ctx, registerTimeout)
	if err := cl.Register(regCtx, first); err != nil {
		log.Printf("%s: initial L-Bone registration: %v (heartbeat will retry)", d.Name, err)
	}
	cancel()
	go cl.Heartbeat(record, every, ctx.Done())
	fmt.Printf("%s: announcing to %s at (%g, %g)\n", d.Name, baseURL, first.X, first.Y)
}
