package slo

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
)

// Options configures Start, the one-call observability stack every
// command wires behind -metrics-addr.
type Options struct {
	// Addr is the -metrics-addr listen address. Empty disables the whole
	// stack: Start returns an inert Stack that serves nothing, samples
	// nothing, and starts no goroutines.
	Addr string
	// Registry to sample and serve; nil means obs.Default().
	Registry *obs.Registry
	// Tracer to serve at /debug/traces; nil means obs.DefaultTracer().
	Tracer *obs.Tracer
	// RulesPath is the -slo-config value: a JSON rule file, or empty for
	// DefaultRules().
	RulesPath string
	// SampleInterval is the -tsdb-interval value (default 1s). The TSDB
	// retention tiers scale with it: interval×300 at full resolution,
	// then 10×interval×360.
	SampleInterval time.Duration
	// Logger receives alert transition events; nil means
	// obs.DefaultLogger().
	Logger *obs.Logger
	// ProfRates is the -prof-rates value: enable mutex and block
	// profiling (SetMutexProfileFraction(100), SetBlockProfileRate(1ms))
	// so capture bundles carry contention evidence. Off by default — the
	// rates add a small cost to every contended lock.
	ProfRates bool
	// CaptureCPUProfile is how long the flight recorder's CPU profile
	// records per bundle (default 2s).
	CaptureCPUProfile time.Duration
	// CaptureCooldown is the minimum spacing between automatic captures
	// (default 2m) — a flapping alert cannot thrash the process.
	CaptureCooldown time.Duration
	// Clock overrides time.Now (tests).
	Clock func() time.Time
	// Rules are evaluated beside the node rules (RulesPath, or
	// DefaultRules()) by the one engine; they must be valid. The steward's
	// fleet rules arrive this way, so a fleet-scope critical alert
	// degrades /healthz like any other.
	Rules []Rule
}

// Stack is a running observability stack: the HTTP server, the sampling
// TSDB, the SLO engine, and the readiness latch, with one Close. All
// methods are nil-safe and safe on the inert (Addr=="") stack, so
// commands hold one unconditionally.
type Stack struct {
	// Server is the bound obs endpoint (nil when disabled).
	Server *obs.Server
	// TSDB is the sampling store (nil when disabled).
	TSDB *obs.TSDB
	// Engine is the SLO evaluator (nil when disabled).
	Engine *Engine
	// Ready is the /readyz latch (nil when disabled).
	Ready *obs.Readiness
	// Recorder is the flight recorder behind /debug/capture (nil when
	// disabled).
	Recorder *prof.Recorder

	stop     chan struct{}
	stopOnce sync.Once
}

// Start builds and runs the stack: it loads the rules, wires the engine
// as the TSDB's per-sample hook, serves /metrics, /debug/tsdb,
// /debug/alerts, the degradable /healthz and the /readyz latch on
// opts.Addr, and starts the single sampling goroutine. With an empty
// Addr it returns an inert Stack and starts nothing.
func Start(opts Options) (*Stack, error) {
	if opts.Addr == "" {
		return &Stack{}, nil
	}
	rules := []Rule(nil)
	if opts.RulesPath != "" {
		var err error
		rules, err = LoadRules(opts.RulesPath)
		if err != nil {
			return nil, err
		}
	}
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	rules = append(rules, opts.Rules...)
	interval := opts.SampleInterval
	if interval <= 0 {
		interval = time.Second
	}
	// Every process with metrics on moves payload through the shared
	// buffer pool, so the stack bridges its counters here instead of
	// asking each command to remember to.
	bufpool.RegisterMetrics(opts.Registry)

	// Runtime self-profiling rides the same gate: the harvester refreshes
	// the runtime.* families at the top of every sampling pass, the label
	// gate makes the hot-path pprof attribution live, and -prof-rates
	// (optionally) turns on contention profiling for capture bundles.
	harvester := prof.NewHarvester(opts.Registry)
	prof.SetLabelsEnabled(true)
	if opts.ProfRates {
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Millisecond))
	}

	var engine *Engine
	db := obs.NewTSDB(obs.TSDBConfig{
		Registry:  opts.Registry,
		Tiers:     obs.DefaultTiers(interval),
		Clock:     opts.Clock,
		PreSample: harvester.Harvest,
		// Evaluation rides the sampling pass: no second timer goroutine,
		// and every evaluation sees a fresh sample.
		OnSample: func() { engine.Evaluate() },
	})
	engine = NewEngine(EngineConfig{
		DB:       db,
		Rules:    rules,
		Registry: opts.Registry,
		Tracer:   opts.Tracer,
		Logger:   opts.Logger,
		Clock:    opts.Clock,
	})
	ready := obs.NewReadiness()

	recorder := prof.NewRecorder(prof.RecorderConfig{
		Registry:   opts.Registry,
		Tracer:     opts.Tracer,
		Logger:     opts.Logger,
		TSDB:       db,
		CPUProfile: opts.CaptureCPUProfile,
		Cooldown:   opts.CaptureCooldown,
		Clock:      opts.Clock,
	})
	// The flight recorder subscribes next to steward.AlertTrigger: a
	// critical alert crossing into firing records a forensic bundle
	// automatically, while the evidence is still live.
	engine.Subscribe(func(a Alert) {
		if a.State == StateFiring && a.Severity == SeverityCritical {
			recorder.TriggerAsync("alert:"+a.Rule, a.Reason)
		}
	})

	srv, err := obs.Serve(opts.Addr, obs.ServeOptions{
		Registry: opts.Registry,
		Tracer:   opts.Tracer,
		TSDB:     db,
		Ready:    ready,
		Health:   engine.HealthError,
		Extra: map[string]http.Handler{
			"/debug/alerts":   engine.Handler(),
			"/debug/capture":  recorder.Handler(),
			"/debug/capture/": recorder.Handler(),
		},
	})
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	go db.Run(stop, interval)
	return &Stack{Server: srv, TSDB: db, Engine: engine, Ready: ready, Recorder: recorder, stop: stop}, nil
}

// Addr returns the bound listen address ("" when disabled).
func (s *Stack) Addr() string {
	if s == nil {
		return ""
	}
	return s.Server.Addr()
}

// Enabled reports whether the stack is actually serving.
func (s *Stack) Enabled() bool { return s != nil && s.Server != nil }

// SetStatus records the current startup phase for /readyz.
func (s *Stack) SetStatus(phase string) {
	if s == nil {
		return
	}
	s.Ready.SetStatus(phase)
}

// MarkReady flips /readyz to 200.
func (s *Stack) MarkReady() {
	if s == nil {
		return
	}
	s.Ready.MarkReady()
}

// Subscribe registers an alert-transition callback (no-op when
// disabled).
func (s *Stack) Subscribe(fn func(Alert)) {
	if s == nil {
		return
	}
	s.Engine.Subscribe(fn)
}

// ReplicaBias builds the depot-latency replica-selection score from the
// stack's TSDB (nil when disabled, which disables biasing downstream).
func (s *Stack) ReplicaBias(window time.Duration) func(string) float64 {
	if s == nil {
		return nil
	}
	return obs.DepotLatencyBias(s.TSDB, window)
}

// Close stops the sampling goroutine, interrupts and waits out any
// in-flight capture, and drains the HTTP server. Safe on nil and on the
// inert stack, and idempotent.
func (s *Stack) Close(ctx context.Context) error {
	if s == nil {
		return nil
	}
	if s.stop != nil {
		s.stopOnce.Do(func() { close(s.stop) })
	}
	s.Recorder.Close()
	return s.Server.Close(ctx)
}
