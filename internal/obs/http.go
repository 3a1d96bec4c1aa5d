package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// processStart anchors the process.uptime_s snapshot every served
// registry exposes.
var processStart = time.Now()

// ServeOptions configures the observability HTTP surface beyond the
// registry and tracer: retained history, readiness, health degradation,
// and extra endpoints (the SLO engine's /debug/alerts arrives this way —
// obs cannot import internal/obs/slo, so the coupling stays generic).
// The zero value reproduces the classic NewMux surface.
type ServeOptions struct {
	// Registry to serve at /metrics; nil means Default().
	Registry *Registry
	// Tracer to serve at /debug/traces; nil means DefaultTracer().
	Tracer *Tracer
	// TSDB, when set, is served at /debug/tsdb.
	TSDB *TSDB
	// Ready backs /readyz: 503 while starting, 200 after MarkReady. Nil
	// means /readyz always answers 200 (process up = ready).
	Ready *Readiness
	// Health, when set, degrades /healthz: a non-nil error turns the
	// liveness probe into a 503 with a JSON reason. The SLO engine's
	// HealthError plugs in here so a firing critical alert is visible to
	// anything that only speaks health checks.
	Health func() error
	// Extra handlers are mounted verbatim (path -> handler).
	Extra map[string]http.Handler
}

// NewMux builds the classic observability HTTP surface over a registry
// and tracer (nil means the process defaults). See NewMuxWith for the
// full endpoint list.
func NewMux(reg *Registry, tracer *Tracer) *http.ServeMux {
	return NewMuxWith(ServeOptions{Registry: reg, Tracer: tracer})
}

// NewMuxWith builds the observability HTTP surface:
//
//	/metrics        registry snapshot as flat JSON
//	/debug/vars     the same snapshot (expvar-compatible shape), plus
//	                the stdlib expvar variables (cmdline, memstats)
//	/debug/pprof/   net/http/pprof profiles (profile, heap, goroutine,
//	                trace, ...)
//	/debug/traces   recently completed spans, oldest first
//	                (?trace=<hex> filters to one trace — the collector's
//	                pull path)
//	/debug/events   recent structured log events, oldest first
//	                (?trace=<hex> filters likewise)
//	/debug/tsdb     retained time series (when a TSDB is wired):
//	                ?name=&since=&agg= queries, no-args lists series
//	/healthz        liveness probe: 200 "ok", or 503 + JSON reason while
//	                the Health hook reports an error (critical SLO alert)
//	/readyz         startup probe: 503 + JSON phase until the process
//	                marks itself ready, then 200 "ok"
func NewMuxWith(opts ServeOptions) *http.ServeMux {
	reg := opts.Registry
	if reg == nil {
		reg = Default()
	}
	tracer := opts.Tracer
	if tracer == nil {
		tracer = DefaultTracer()
	}
	// Every served registry carries process.uptime_s so scrapers (the
	// fleet federation in particular) can tell a long-lived peer from one
	// that just restarted without parsing pprof or expvar internals.
	reg.RegisterSnapshot("process", func() map[string]float64 {
		return map[string]float64{"uptime_s": time.Since(processStart).Seconds()}
	})
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	// /debug/vars merges the stdlib expvar map (cmdline, memstats) with
	// the registry, serving one flat JSON object like expvar does.
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		first := true
		expvar.Do(func(kv expvar.KeyValue) {
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value.String())
		})
		for name, val := range reg.Snapshot() {
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "%q: %s", name, jsonValue(val))
		}
		fmt.Fprintf(w, "\n}\n")
	})
	mux.Handle("/debug/traces", tracer.Handler())
	mux.Handle("/debug/events", DefaultLogger().Handler())
	if opts.TSDB != nil {
		mux.Handle("/debug/tsdb", opts.TSDB.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	health := opts.Health
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if health != nil {
			if err := health(); err != nil {
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				w.WriteHeader(http.StatusServiceUnavailable)
				_ = json.NewEncoder(w).Encode(map[string]string{
					"status": "degraded",
					"reason": err.Error(),
				})
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	ready := opts.Ready
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !ready.Ready() {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"status": "starting",
				"phase":  ready.Status(),
			})
			return
		}
		fmt.Fprintln(w, "ok")
	})
	for path, h := range opts.Extra {
		mux.Handle(path, h)
	}
	return mux
}

func jsonValue(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "null"
	}
	return string(b)
}

// Server is a running observability endpoint: the bound address plus a
// graceful shutdown handle. Nil-safe, so commands can hold one
// unconditionally and Close it on every exit path even when
// -metrics-addr was off.
type Server struct {
	addr string
	srv  *http.Server
	mux  *http.ServeMux
}

// Handle mounts one more endpoint on the running server: a handler whose
// owner is built only after the address binds (the steward's
// /debug/fleet) arrives this way. No-op on nil.
func (s *Server) Handle(path string, h http.Handler) {
	if s == nil {
		return
	}
	s.mux.Handle(path, h)
}

// Addr returns the bound listen address (resolved, useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// Close gracefully drains the HTTP server: in-flight scrapes finish,
// then the listener closes. The context bounds the drain; on expiry the
// server is closed hard. Safe on nil.
func (s *Server) Close(ctx context.Context) error {
	if s == nil || s.srv == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	if err != nil {
		_ = s.srv.Close()
	}
	return err
}

// Serve binds the observability mux on addr and serves it on a
// background goroutine. Pass nil reg/tracer for the process defaults.
// Serving metrics also turns on cross-process trace propagation (the
// trace=... line tokens and X-Lonviz-Trace headers) for this process:
// the deployments that can receive a trace are exactly the ones that
// export one.
func Serve(addr string, reg *Registry, tracer *Tracer) (*Server, error) {
	return ServeWith(addr, ServeOptions{Registry: reg, Tracer: tracer})
}

// ServeWith is Serve with the full option surface (TSDB, readiness,
// degradable health, extra endpoints).
func ServeWith(addr string, opts ServeOptions) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := NewMuxWith(opts)
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(l) }()
	SetPropagation(true)
	return &Server{addr: l.Addr().String(), srv: srv, mux: mux}, nil
}
