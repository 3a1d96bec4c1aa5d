// Package obs is the unified observability layer of the lonviz stack:
// stdlib-only metrics and request-scoped tracing for every network-facing
// component, exported as expvar-compatible JSON over an opt-in HTTP
// endpoint alongside net/http/pprof.
//
// # Contract
//
// Three metric primitives cover the stack's needs:
//
//   - Counter: a monotonically increasing atomic int64 (operations,
//     bytes, errors).
//   - Gauge: an atomic int64 snapshot value that can move both ways
//     (queue depths, open circuits).
//   - Histogram: a fixed-bucket latency/size distribution with count,
//     sum, min, max and interpolated p50/p95/p99. Buckets are chosen at
//     construction and never reallocate, so Observe is a handful of
//     atomic adds — safe on hot paths.
//
// Metrics live in a Registry keyed by name. Names are dotted lowercase
// with the unit as suffix ("ibp.op.ms", "lors.download.bytes"); low-
// cardinality labels are folded into the name with Label, rendering as
// "name{key=value}". Registry accessors are get-or-create, so call sites
// need no registration ceremony: the instrumented packages (ibp, lors,
// dvs, lbone, agent, steward) record into obs.Default() unless a caller
// injects its own registry. Component-level snapshot stats that already
// exist as structs (agent.Stats, steward.Stats, ibp.Depot.Stat) are
// bridged with RegisterSnapshot, which polls a closure at scrape time.
//
// Tracing is a lightweight span API: StartSpan derives a child span from
// whatever span the context carries, End completes it, and the Tracer
// retains a bounded ring of recently completed spans with parent/child
// links intact for the /debug/traces endpoint. It is request-scoped
// observability, not a distributed tracer: span IDs never cross the
// wire.
//
// # Exposure
//
// NewMux builds the HTTP surface: /metrics and /debug/vars serve the
// registry as a flat JSON object (the expvar shape), /debug/pprof/* is
// net/http/pprof, and /debug/traces dumps the recent span ring. Serve
// binds it to an address; every daemon exposes it behind a -metrics-addr
// flag. See docs/OBSERVABILITY.md for the metric catalog and worked
// diagnosis examples.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; methods are safe for concurrent use and on a nil receiver (a
// nil counter records nothing), so optional instrumentation needs no
// guards.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a fresh counter (for struct fields; registry users
// call Registry.Counter instead).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored: counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move in both directions. Safe
// for concurrent use and on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a fresh gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// LatencyBucketsMs is the default histogram layout for operation
// latencies in milliseconds: roughly exponential from 50µs (cache hits
// in Figure 12 live near 1e-4 s) up to 30 s (a WAN operation gone
// pathological).
var LatencyBucketsMs = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50,
	100, 250, 500, 1000, 2500, 5000, 10000, 30000,
}

// SizeBucketsBytes is the default layout for payload sizes: powers of
// four from 1 KiB to 64 MiB.
var SizeBucketsBytes = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// Histogram is a fixed-bucket distribution. Bucket i counts observations
// v <= bounds[i]; one extra overflow bucket counts the rest. Observe is
// lock-free (atomic adds only). Quantiles are estimated by linear
// interpolation inside the containing bucket, which is exact enough to
// rank depots and spot order-of-magnitude regressions — the use cases
// this layer exists for. Safe on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
	minSet atomic.Bool

	// Exemplar linkage: the trace ID of the most recent sample that
	// landed in the top (highest yet seen) bucket, so a bad tail is one
	// /debug/traces lookup from its merged trace. Two independent atomics
	// — a racing pair of top-bucket samples may interleave, which is fine
	// for a diagnostic pointer.
	exemplarIdx   atomic.Int64 // highest bucket index observed, +1 (0 = none)
	exemplarTrace atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// Empty bounds default to LatencyBucketsMs.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBucketsMs
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample. NaN is dropped.
func (h *Histogram) Observe(v float64) {
	h.ObserveTrace(v, 0)
}

// ObserveTrace records one sample like Observe and, when the sample
// lands in the top bucket — the highest bucket index this histogram has
// seen — retains traceID as the histogram's exemplar. The exemplar is
// exported in snapshots and shown by lftop's latency panes, so the trace
// behind a bad p99 is one -trace lookup away. A zero traceID records the
// sample without touching the exemplar.
func (h *Histogram) ObserveTrace(v float64, traceID uint64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
	updateMin(&h.min, &h.minSet, v)
	updateMax(&h.max, v)
	if traceID != 0 && int64(idx)+1 >= h.exemplarIdx.Load() {
		h.exemplarIdx.Store(int64(idx) + 1)
		h.exemplarTrace.Store(traceID)
	}
}

// Exemplar returns the trace ID of the most recent top-bucket sample
// (0 when no traced sample has been observed).
func (h *Histogram) Exemplar() uint64 {
	if h == nil {
		return 0
	}
	return h.exemplarTrace.Load()
}

// AddSample records n observations of value v in one call — the bulk
// path the runtime-metrics harvester uses to fold Float64Histogram
// bucket deltas into the registry without synthesizing n Observes. NaN
// values and non-positive n are dropped.
func (h *Histogram) AddSample(v float64, n int64) {
	if h == nil || n <= 0 || math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(n)
	h.count.Add(n)
	addFloat(&h.sum, v*float64(n))
	updateMin(&h.min, &h.minSet, v)
	updateMax(&h.max, v)
}

func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

func updateMin(a *atomic.Uint64, set *atomic.Bool, v float64) {
	for {
		if !set.Load() {
			// First observation: try to claim. A racing first observation
			// is resolved by the CAS loop below on the next pass.
			if set.CompareAndSwap(false, true) {
				a.Store(math.Float64bits(v))
				return
			}
			continue
		}
		old := a.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func updateMax(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if h := math.Float64frombits(old); old != 0 && h >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time view of a histogram, shaped for
// JSON export.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets maps each upper bound (and "+Inf") to its count. Only
	// non-empty buckets are included, to keep scrape output readable.
	Buckets map[string]int64 `json:"buckets,omitempty"`
	// ExemplarTrace is the hex trace ID of the most recent sample that
	// landed in the histogram's top bucket — the trace to pull when the
	// tail looks wrong. Omitted when no traced sample has been observed.
	ExemplarTrace string `json:"exemplar_trace,omitempty"`
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-th quantile (0 < q < 1) by linear
// interpolation within the containing bucket; the overflow bucket
// reports the largest bound (quantiles above the layout saturate). An
// empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i >= len(h.bounds) {
				// Overflow bucket has no upper edge; clamp at the max seen.
				return math.Float64frombits(h.max.Load())
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return math.Float64frombits(h.max.Load())
}

// Snapshot returns the JSON-ready view.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sum.Load()),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	if ex := h.exemplarTrace.Load(); ex != 0 {
		s.ExemplarTrace = fmt.Sprintf("%016x", ex)
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
		s.Min = math.Float64frombits(h.min.Load())
		s.Max = math.Float64frombits(h.max.Load())
		s.Buckets = make(map[string]int64)
		for i := range h.counts {
			n := h.counts[i].Load()
			if n == 0 {
				continue
			}
			key := "+Inf"
			if i < len(h.bounds) {
				key = trimFloat(h.bounds[i])
			}
			s.Buckets[key] = n
		}
	}
	return s
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", f), "0"), ".")
}

// Label folds low-cardinality label pairs into a metric name, rendering
// "name{k1=v1,k2=v2}" with keys sorted so the same label set always maps
// to the same metric. It is the naming convention of this package, not a
// dimensional model: use it for bounded sets (operation verbs, depot
// addresses of a deployment), never for unbounded values.
func Label(name string, kv ...string) string {
	switch len(kv) {
	case 0:
		return name
	case 2: // one pair, as on every request path: nothing to sort
		return name + "{" + kv[0] + "=" + kv[1] + "}"
	}
	return labelSorted(name, kv)
}

// labelSorted is Label's general path, any number of pairs.
func labelSorted(name string, kv []string) string {
	if len(kv)%2 != 0 {
		kv = append(kv, "")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.Grow(len(name) + 2 + 16*len(pairs))
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// BaseName strips the {labels} suffix Label added, returning the metric
// family name. Documentation tooling (scripts/docscheck.sh) audits
// families, not label instances.
func BaseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WithLabel injects one more label pair into a metric name that may
// already carry labels, keeping the canonical sorted-key rendering:
// WithLabel("ibp.op.ms{op=load}", "node", "h1:99") is
// "ibp.op.ms{node=h1:99,op=load}". The fleet scraper uses it to
// namespace scraped per-node series into the cluster TSDB.
func WithLabel(name, key, value string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return Label(name, key, value)
	}
	kv := []string{key, value}
	for _, pair := range strings.Split(name[i+1:len(name)-1], ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		kv = append(kv, k, v)
	}
	return Label(name[:i], kv...)
}
