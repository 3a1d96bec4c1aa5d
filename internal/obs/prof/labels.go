// Package prof is the runtime self-profiling layer of the observability
// stack: pprof label attribution for the hot paths, a runtime/metrics
// harvester that feeds the TSDB's runtime.* families, and a flight
// recorder that captures forensic bundles when a critical SLO alert
// fires. slo.Start wires all three behind -metrics-addr; with metrics
// off none of it runs and the label wrappers are zero-alloc no-ops
// (pinned by TestLabelsOffPathAllocs, the same contract as the trace
// propagation gate).
package prof

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// Label keys the instrumented hot paths use. Every CPU/goroutine profile
// of a loaded process slices by these: class = which workload
// (ibp|dvs|render|wan|lan-depot|edge|edge_fill|steward_repair), verb =
// the wire verb being served, depot = the depot address being talked to.
const (
	KeyClass = "class"
	KeyVerb  = "verb"
	KeyDepot = "depot"
)

var labelsOn atomic.Bool

// SetLabelsEnabled turns pprof label attribution on or off process-wide.
// slo.Start enables it with the rest of the stack; tests flip it
// directly.
func SetLabelsEnabled(on bool) { labelsOn.Store(on) }

// Do runs fn under the given pprof label pairs (k1, v1, k2, v2, ...),
// restoring the previous labels when fn returns. With the gate off it
// calls fn directly. Meant for sites that already allocate per call
// (agent fetches, edge fills, steward repairs): the closure and the
// variadic slice escape regardless of the gate, so wire-level hot loops
// use Begin/End instead.
func Do(ctx context.Context, fn func(context.Context), kv ...string) {
	if !labelsOn.Load() {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(kv...), fn)
}

// Begin1 applies one label pair to the calling goroutine and returns the
// labeled context. The caller must pair it with End(ctx) on the ORIGINAL
// context so the goroutine's previous label set is restored:
//
//	lctx := prof.Begin1(ctx, prof.KeyClass, "dvs")
//	defer prof.End(ctx)
//
// With the gate off it returns ctx unchanged and performs no allocation
// (fixed string parameters never escape), so per-request server loops
// call it unconditionally.
func Begin1(ctx context.Context, k1, v1 string) context.Context {
	if !labelsOn.Load() {
		return ctx
	}
	lctx := pprof.WithLabels(ctx, pprof.Labels(k1, v1))
	pprof.SetGoroutineLabels(lctx)
	return lctx
}

// Begin2 is Begin1 with two label pairs.
func Begin2(ctx context.Context, k1, v1, k2, v2 string) context.Context {
	if !labelsOn.Load() {
		return ctx
	}
	lctx := pprof.WithLabels(ctx, pprof.Labels(k1, v1, k2, v2))
	pprof.SetGoroutineLabels(lctx)
	return lctx
}

// Begin3 is Begin1 with three label pairs.
func Begin3(ctx context.Context, k1, v1, k2, v2, k3, v3 string) context.Context {
	if !labelsOn.Load() {
		return ctx
	}
	lctx := pprof.WithLabels(ctx, pprof.Labels(k1, v1, k2, v2, k3, v3))
	pprof.SetGoroutineLabels(lctx)
	return lctx
}

// End restores the goroutine's labels to the set ctx carries — pass the
// context from BEFORE the matching Begin call, not Begin's return value.
// No-op (and alloc-free) with the gate off.
func End(ctx context.Context) {
	if !labelsOn.Load() {
		return
	}
	pprof.SetGoroutineLabels(ctx)
}
