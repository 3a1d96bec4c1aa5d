package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
)

// Registry holds named metrics. Accessors are get-or-create: the first
// caller of a name decides its type, later callers of the same name and
// type share the instance, and a type clash panics (it is a programming
// error, caught by the first scrape in any test). All methods are safe
// for concurrent use; a nil registry is inert, so instrumented code can
// record unconditionally.
type Registry struct {
	// MaxLabelInstances caps how many labeled instances one metric family
	// may register (0 means DefaultMaxLabelInstances). Beyond the cap,
	// new label sets fold into a per-family "other" instance and the
	// obs.label_overflow counter increments — a misbehaving depot list
	// cannot grow /metrics (and every TSDB series built on it) without
	// bound. Set before first use; it is read under the registry lock.
	MaxLabelInstances int

	mu        sync.Mutex
	metrics   map[string]any
	snapshots map[string]func() map[string]float64
	families  map[string]int // labeled instances registered per family
}

// DefaultMaxLabelInstances is the per-family labeled-instance cap when
// Registry.MaxLabelInstances is unset: comfortably above any sane
// deployment's depot count, far below what would bloat a scrape.
const DefaultMaxLabelInstances = 64

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics:   make(map[string]any),
		snapshots: make(map[string]func() map[string]float64),
		families:  make(map[string]int),
	}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry that instrumented packages
// record into when no registry is injected. Daemons serve it via
// -metrics-addr.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

func lookup[T any](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as %T, was %T", name, *new(T), m))
		}
		return t
	}
	// Cardinality guard: a new labeled instance past the family cap folds
	// into the "other" instance instead of registering. The original name
	// never enters the map, so overflowing lookups keep landing here —
	// the overflow counter tallies every folded recording, not just the
	// first.
	if base := BaseName(name); base != name {
		maxInst := r.MaxLabelInstances
		if maxInst <= 0 {
			maxInst = DefaultMaxLabelInstances
		}
		if r.families == nil {
			r.families = make(map[string]int)
		}
		if r.families[base] >= maxInst {
			r.overflowLocked()
			name = foldLabels(name)
			if m, ok := r.metrics[name]; ok {
				t, ok := m.(T)
				if !ok {
					panic(fmt.Sprintf("obs: metric %q re-registered as %T, was %T", name, *new(T), m))
				}
				return t
			}
		} else {
			r.families[base]++
		}
	}
	t := mk()
	r.metrics[name] = t
	return t
}

// overflowLocked bumps the obs.label_overflow counter without re-entering
// lookup (the caller holds r.mu).
func (r *Registry) overflowLocked() {
	c, ok := r.metrics[MObsLabelOverflow].(*Counter)
	if !ok {
		c = NewCounter()
		r.metrics[MObsLabelOverflow] = c
	}
	c.Inc()
}

// foldLabels rewrites every label value of a labeled metric name to
// "other", preserving the keys: "ibp.depot.ms{depot=h1:99}" becomes
// "ibp.depot.ms{depot=other}". Overflowing instances of one family all
// collapse onto the same bounded set of names.
func foldLabels(name string) string {
	family, labels := ParseLabels(name)
	if labels == nil {
		return name
	}
	kv := make([]string, 0, 2*len(labels))
	for k := range labels {
		kv = append(kv, k, "other")
	}
	return Label(family, kv...)
}

// Counter returns the counter registered under name, creating it if
// needed. Nil registries return a nil (inert) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, name, NewCounter)
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, name, NewGauge)
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds if needed (empty bounds = LatencyBucketsMs).
// Bounds are fixed at creation; later callers' bounds are ignored.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Histogram { return NewHistogram(bounds...) })
}

// RegisterSnapshot bridges an existing stats struct into the registry:
// fn is polled at scrape time and its entries appear as prefix.key. It
// replaces any previous snapshot under the same prefix, so a restarted
// component can re-register. The closure must be safe to call from any
// goroutine.
func (r *Registry) RegisterSnapshot(prefix string, fn func() map[string]float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snapshots[prefix] = fn
}

// Names returns the registered metric names, sorted (snapshot prefixes
// excluded).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Snapshot renders every metric to a JSON-ready flat map: counters and
// gauges as numbers, histograms as HistogramSnapshot objects, snapshot
// closures inlined under their prefix.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	metrics := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		metrics[name] = m
	}
	snaps := make(map[string]func() map[string]float64, len(r.snapshots))
	for prefix, fn := range r.snapshots {
		snaps[prefix] = fn
	}
	r.mu.Unlock()

	for name, m := range metrics {
		switch v := m.(type) {
		case *Counter:
			out[name] = v.Value()
		case *Gauge:
			out[name] = v.Value()
		case *Histogram:
			out[name] = v.Snapshot()
		}
	}
	// Snapshot closures run outside the registry lock: they take component
	// locks (agent.Stats, depot.Stat) that must not nest under ours.
	for prefix, fn := range snaps {
		for k, v := range fn() {
			out[prefix+"."+k] = v
		}
	}
	return out
}

// WriteJSON writes the snapshot as pretty-printed JSON, sorted by key: one
// flat name->value object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler serves the registry snapshot as JSON.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}
