package obs

// A fixed-memory, in-process time-series store over the metrics
// registry. The TSDB samples every registered metric on an interval into
// per-series ring buffers with tiered downsampling (by default 1 s
// resolution for 5 minutes and 10 s resolution for 1 hour), turning the
// instantaneous /metrics snapshot into enough history to answer "has
// depot p99 degraded over the last ten minutes?" — the question the SLO
// engine (internal/obs/slo) asks on every evaluation, and the one lftop's
// history mode renders as sparklines.
//
// Counters and gauges are stored as raw sampled values; histograms store
// the cumulative per-bucket counts, so any two samples subtract into an
// exact distribution of the observations between them. Because every
// series is cumulative, downsampling is pure decimation: the coarse tier
// keeps one sample per step and loses no information a rate or windowed
// quantile query needs. All memory is allocated up front when a series is
// first seen; steady-state sampling reuses the rings.
//
// The store is nil-safe throughout: with -metrics-addr off no TSDB is
// constructed, and a nil *TSDB samples nothing, answers empty, and spawns
// nothing — the off path stays zero-goroutine and zero-alloc (pinned by
// TestTSDBOffPathAllocs).

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point is one sample of a series: unix-millisecond timestamp and value.
// For histogram series the value is the cumulative observation count.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Tier is one retention tier of the TSDB: a ring of Slots samples spaced
// Step apart, covering Step×Slots of history.
type Tier struct {
	Step  time.Duration `json:"step"`
	Slots int           `json:"slots"`
}

// Span is the history window the tier covers.
func (t Tier) Span() time.Duration { return t.Step * time.Duration(t.Slots) }

// DefaultTiers returns the standard two-tier layout scaled to the
// sampling interval: full resolution for 300 samples, then 10× coarser
// for 360 samples. At the default 1 s interval that is 1s×5m + 10s×1h,
// the layout named in docs/OBSERVABILITY.md.
func DefaultTiers(step time.Duration) []Tier {
	if step <= 0 {
		step = time.Second
	}
	return []Tier{
		{Step: step, Slots: 300},
		{Step: 10 * step, Slots: 360},
	}
}

// TSDBConfig configures NewTSDB.
type TSDBConfig struct {
	// Registry to sample; nil means Default().
	Registry *Registry
	// Tiers of retention, finest first. Empty means DefaultTiers(1s).
	Tiers []Tier
	// PreSample, when set, runs synchronously at the top of every sampling
	// pass, before the registry is read — the hook the runtime harvester
	// (internal/obs/prof) refreshes the runtime.* families from, so every
	// retained sample sees runtime state no older than the tick.
	PreSample func()
	// OnSample, when set, runs synchronously after every sampling pass —
	// the hook the SLO engine evaluates from, so evaluation needs no
	// second timer goroutine and always sees a fresh sample.
	OnSample func()
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// tsdbSeries is the retained history of one metric name across all tiers.
type tsdbSeries struct {
	name   string
	hist   bool
	bounds []float64 // histogram upper bounds (shared, not owned)
	tiers  []*tsdbRing
}

// tsdbRing is one tier's ring for one series. Scalar series fill times
// and vals; histogram series fill times, counts, sums, and buckets
// (cumulative per-bucket observation counts, preallocated per slot).
type tsdbRing struct {
	stepMs  int64
	times   []int64
	vals    []float64
	counts  []int64
	sums    []float64
	buckets [][]int64
	pos, n  int
	lastT   int64 // timestamp of the newest accepted sample
}

// TSDB is the fixed-memory time-series store. All methods are safe for
// concurrent use and on a nil receiver.
type TSDB struct {
	reg       *Registry
	tiers     []Tier
	preSample func()
	onSample  func()
	clock     func() time.Time

	mu     sync.RWMutex
	series map[string]*tsdbSeries

	// sampleMu serializes Sample passes: Run owns the only periodic
	// caller, but Sample is exported and must stay safe under direct
	// concurrent calls (the scratch buffers below are shared).
	sampleMu sync.Mutex
	// scratch buffers reused across sampling passes to keep the
	// steady-state pass allocation-light.
	scratchNames []string
	scratchVals  []scratchMetric
	scratchSnaps []scratchSnapshot
}

type scratchMetric struct {
	name string
	m    any
}

type scratchSnapshot struct {
	prefix string
	fn     func() map[string]float64
}

// NewTSDB builds a store over the registry. It starts no goroutines; the
// caller drives it with Sample or Run.
func NewTSDB(cfg TSDBConfig) *TSDB {
	reg := cfg.Registry
	if reg == nil {
		reg = Default()
	}
	tiers := cfg.Tiers
	if len(tiers) == 0 {
		tiers = DefaultTiers(time.Second)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &TSDB{
		reg:       reg,
		tiers:     tiers,
		preSample: cfg.PreSample,
		onSample:  cfg.OnSample,
		clock:     clock,
		series:    make(map[string]*tsdbSeries),
	}
}

// Tiers returns the retention layout.
func (db *TSDB) Tiers() []Tier {
	if db == nil {
		return nil
	}
	return db.tiers
}

// Run samples every interval until stop closes. It blocks; callers own
// the goroutine (slo.Start wires this behind -metrics-addr).
func (db *TSDB) Run(stop <-chan struct{}, interval time.Duration) {
	if db == nil {
		return
	}
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			db.Sample()
		}
	}
}

// Sample records one pass over the registry into every series, then runs
// the OnSample hook. No-op on nil.
func (db *TSDB) Sample() {
	if db == nil {
		return
	}
	now := db.clock().UnixMilli()
	db.sampleMu.Lock()
	defer db.sampleMu.Unlock()

	// The PreSample hook runs under sampleMu so harvesters that keep
	// previous-snapshot state need no locking of their own.
	if db.preSample != nil {
		db.preSample()
	}

	// Collect metric references and snapshot closures under the registry
	// lock, then drop it: closures take component locks (agent.Stats,
	// depot.Stat) that must not nest under the registry's.
	db.scratchVals = db.scratchVals[:0]
	db.scratchSnaps = db.scratchSnaps[:0]
	db.reg.mu.Lock()
	for name, m := range db.reg.metrics {
		db.scratchVals = append(db.scratchVals, scratchMetric{name, m})
	}
	for prefix, fn := range db.reg.snapshots {
		db.scratchSnaps = append(db.scratchSnaps, scratchSnapshot{prefix, fn})
	}
	db.reg.mu.Unlock()

	db.mu.Lock()
	for _, sm := range db.scratchVals {
		switch v := sm.m.(type) {
		case *Counter:
			db.record(sm.name, now, float64(v.Value()))
		case *Gauge:
			db.record(sm.name, now, float64(v.Value()))
		case *Histogram:
			db.recordHist(sm.name, now, v)
		}
	}
	db.mu.Unlock()

	// Snapshot closures run outside both locks, then their values are
	// recorded like gauges.
	for _, ss := range db.scratchSnaps {
		vals := ss.fn()
		db.mu.Lock()
		for k, v := range vals {
			db.record(ss.prefix+"."+k, now, v)
		}
		db.mu.Unlock()
	}

	if db.onSample != nil {
		db.onSample()
	}
}

// record stores one scalar sample. Caller holds db.mu.
func (db *TSDB) record(name string, now int64, v float64) {
	s := db.series[name]
	if s == nil {
		s = db.newSeries(name, false, nil)
	}
	for i, r := range s.tiers {
		if !r.accepts(now, i == 0) {
			continue
		}
		r.times[r.pos] = now
		r.vals[r.pos] = v
		r.advance(now)
	}
}

// recordHist stores one histogram sample: cumulative count, sum, and
// per-bucket counts. Caller holds db.mu.
func (db *TSDB) recordHist(name string, now int64, h *Histogram) {
	s := db.series[name]
	if s == nil {
		s = db.newSeries(name, true, h.bounds)
	}
	count := h.count.Load()
	sum := math.Float64frombits(h.sum.Load())
	for i, r := range s.tiers {
		if !r.accepts(now, i == 0) {
			continue
		}
		r.times[r.pos] = now
		r.counts[r.pos] = count
		r.sums[r.pos] = sum
		slot := r.buckets[r.pos]
		for j := range h.counts {
			slot[j] = h.counts[j].Load()
		}
		r.advance(now)
	}
}

// accepts reports whether the ring should take a sample at now. The
// finest tier takes every pass; coarser tiers decimate, keeping one
// sample per step (with 10% tolerance for ticker jitter).
func (r *tsdbRing) accepts(now int64, finest bool) bool {
	if finest || r.lastT == 0 {
		return true
	}
	return now-r.lastT >= r.stepMs-r.stepMs/10
}

func (r *tsdbRing) advance(now int64) {
	r.lastT = now
	r.pos = (r.pos + 1) % len(r.times)
	if r.n < len(r.times) {
		r.n++
	}
}

// newSeries allocates the full tiered storage for one name. Caller holds
// db.mu.
func (db *TSDB) newSeries(name string, hist bool, bounds []float64) *tsdbSeries {
	s := &tsdbSeries{name: name, hist: hist, bounds: bounds}
	for _, t := range db.tiers {
		r := &tsdbRing{
			stepMs: t.Step.Milliseconds(),
			times:  make([]int64, t.Slots),
		}
		if hist {
			r.counts = make([]int64, t.Slots)
			r.sums = make([]float64, t.Slots)
			r.buckets = make([][]int64, t.Slots)
			slab := make([]int64, t.Slots*(len(bounds)+1))
			for i := range r.buckets {
				r.buckets[i] = slab[i*(len(bounds)+1) : (i+1)*(len(bounds)+1)]
			}
		} else {
			r.vals = make([]float64, t.Slots)
		}
		s.tiers = append(s.tiers, r)
	}
	db.series[name] = s
	return s
}

// SeriesInfo describes one retained series for the /debug/tsdb index.
type SeriesInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "scalar" | "histogram"
	Samples int    `json:"samples"`
}

// Names returns the retained series names, sorted.
func (db *TSDB) Names() []string {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.series))
	for name := range db.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Series returns the index of retained series, sorted by name.
func (db *TSDB) Series() []SeriesInfo {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]SeriesInfo, 0, len(db.series))
	for name, s := range db.series {
		kind := "scalar"
		if s.hist {
			kind = "histogram"
		}
		out = append(out, SeriesInfo{Name: name, Kind: kind, Samples: s.tiers[0].n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// pickRing chooses the finest tier whose retention still covers since;
// if none does, the coarsest. Caller holds db.mu (read).
func (s *tsdbSeries) pickRing(now, since int64) *tsdbRing {
	for _, r := range s.tiers {
		span := r.stepMs * int64(len(r.times))
		if now-since <= span {
			return r
		}
	}
	return s.tiers[len(s.tiers)-1]
}

// scan calls fn for each retained sample with time >= since, oldest
// first. Caller holds db.mu (read).
func (r *tsdbRing) scan(since int64, fn func(i int)) {
	start := r.pos - r.n
	if start < 0 {
		start += len(r.times)
	}
	for k := 0; k < r.n; k++ {
		i := (start + k) % len(r.times)
		if r.times[i] >= since {
			fn(i)
		}
	}
}

// Points returns the raw samples of a series since the given time
// (oldest first), choosing the finest tier that covers the window. For
// histogram series the value is the cumulative observation count.
func (db *TSDB) Points(name string, since time.Time) []Point {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.series[name]
	if s == nil {
		return nil
	}
	r := s.pickRing(db.clock().UnixMilli(), since.UnixMilli())
	var out []Point
	r.scan(since.UnixMilli(), func(i int) {
		v := 0.0
		if s.hist {
			v = float64(r.counts[i])
		} else {
			v = r.vals[i]
		}
		out = append(out, Point{T: r.times[i], V: v})
	})
	return out
}

// Latest returns the newest sample of a series.
func (db *TSDB) Latest(name string) (Point, bool) {
	if db == nil {
		return Point{}, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.series[name]
	if s == nil || s.tiers[0].n == 0 {
		return Point{}, false
	}
	r := s.tiers[0]
	i := r.pos - 1
	if i < 0 {
		i += len(r.times)
	}
	if s.hist {
		return Point{T: r.times[i], V: float64(r.counts[i])}, true
	}
	return Point{T: r.times[i], V: r.vals[i]}, true
}

// counterIncrease folds a cumulative series into its total increase,
// Prometheus-style: a decrease between adjacent samples is a counter
// reset, and the post-reset value is the increase since the reset.
func counterIncrease(pts []Point) float64 {
	inc := 0.0
	for i := 1; i < len(pts); i++ {
		if d := pts[i].V - pts[i-1].V; d >= 0 {
			inc += d
		} else {
			inc += pts[i].V
		}
	}
	return inc
}

// Delta returns the reset-aware increase of a cumulative series over the
// trailing window, and the number of samples it was computed from.
func (db *TSDB) Delta(name string, window time.Duration) (float64, int) {
	pts := db.windowPoints(name, window)
	if len(pts) < 2 {
		return 0, len(pts)
	}
	return counterIncrease(pts), len(pts)
}

func (db *TSDB) windowPoints(name string, window time.Duration) []Point {
	if db == nil {
		return nil
	}
	since := db.clock().Add(-window)
	return db.Points(name, since)
}

// QuantileOver estimates the q-th quantile of a histogram series over
// the trailing window by subtracting the oldest in-window sample's
// cumulative buckets from the newest and interpolating inside the
// containing bucket, exactly as Histogram.Quantile does for the
// all-time distribution. The second return is the number of
// observations the window held: callers gate on it (an empty window has
// no quantile). A counter reset inside the window falls back to the
// newest sample's full distribution.
func (db *TSDB) QuantileOver(name string, q float64, window time.Duration) (float64, int64) {
	if db == nil {
		return 0, 0
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.series[name]
	if s == nil || !s.hist {
		return 0, 0
	}
	now := db.clock().UnixMilli()
	since := now - window.Milliseconds()
	r := s.pickRing(now, since)
	first, last := -1, -1
	r.scan(since, func(i int) {
		if first < 0 {
			first = i
		}
		last = i
	})
	if last < 0 {
		return 0, 0
	}
	nb := len(s.bounds) + 1
	delta := make([]int64, nb)
	count := r.counts[last]
	if first != last {
		count -= r.counts[first]
	} else {
		first = -1
	}
	if count < 0 { // reset inside the window: use the newest alone
		first = -1
		count = r.counts[last]
	}
	for j := 0; j < nb; j++ {
		delta[j] = r.buckets[last][j]
		if first >= 0 {
			delta[j] -= r.buckets[first][j]
		}
	}
	if count <= 0 {
		return 0, 0
	}
	// Quantiles past the layout saturate at its largest bound.
	top := s.bounds[len(s.bounds)-1]
	return bucketQuantile(s.bounds, func(i int) int64 { return delta[i] }, count, q, top), count
}

// RateSeries renders a cumulative series as pointwise per-second rates
// between consecutive samples (reset-aware), for sparklines.
func (db *TSDB) RateSeries(name string, since time.Time) []Point {
	pts := db.Points(name, since)
	if len(pts) < 2 {
		return nil
	}
	out := make([]Point, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		dt := float64(pts[i].T-pts[i-1].T) / 1000
		if dt <= 0 {
			continue
		}
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = pts[i].V
		}
		out = append(out, Point{T: pts[i].T, V: d / dt})
	}
	return out
}

// QuantileSeries renders a histogram series as a sliding-window quantile
// evaluated at each retained sample time since the given time.
func (db *TSDB) QuantileSeries(name string, q float64, window time.Duration, since time.Time) []Point {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s == nil || !s.hist {
		return nil
	}
	raw := db.Points(name, since)
	out := make([]Point, 0, len(raw))
	now := db.clock()
	for _, p := range raw {
		back := now.Sub(time.UnixMilli(p.T)) + window
		v, n := db.QuantileOver(name, q, back)
		if n == 0 {
			continue
		}
		out = append(out, Point{T: p.T, V: v})
	}
	return out
}

// DepotLatencyBias builds a replica-selection score from the depot
// latency history: each depot scores its p99 round-trip over the window
// (ms), unknown depots score 0 (no history is no penalty). Wire it into
// lors.DownloadOptions.Prefer (lower is better) so downloads drift away
// from depots whose latency has regressed. Returns nil on a nil TSDB so
// callers can pass it through unconditionally.
func DepotLatencyBias(db *TSDB, window time.Duration) func(depot string) float64 {
	if db == nil {
		return nil
	}
	if window <= 0 {
		window = 5 * time.Minute
	}
	return func(depot string) float64 {
		v, n := db.QuantileOver(Label(MIBPDepotMs, "depot", depot), 0.99, window)
		if n == 0 {
			return 0
		}
		return v
	}
}

// tsdbResponse is the JSON shape of one /debug/tsdb series query.
type tsdbResponse struct {
	Name   string  `json:"name"`
	Agg    string  `json:"agg"`
	Points []Point `json:"points"`
}

// tsdbIndex is the JSON shape of the /debug/tsdb series listing.
type tsdbIndex struct {
	Tiers  []tsdbTierInfo `json:"tiers"`
	Series []SeriesInfo   `json:"series"`
}

type tsdbTierInfo struct {
	StepMs int64 `json:"step_ms"`
	Slots  int   `json:"slots"`
}

// parseSince interprets the since query parameter: a Go duration
// ("5m", "30s") meaning "this far back", or absolute unix milliseconds.
// Empty means the full finest-tier window.
func parseSince(v string, now time.Time, fallback time.Duration) (time.Time, bool) {
	if v == "" {
		return now.Add(-fallback), true
	}
	if d, err := time.ParseDuration(v); err == nil && d > 0 {
		return now.Add(-d), true
	}
	if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
		return time.UnixMilli(ms), true
	}
	return time.Time{}, false
}

// Handler serves the store: no parameters list the retained series;
// ?name=<series>&since=<dur|unixms>&agg=raw|rate|p50|p95|p99[&window=<dur>]
// returns points. See docs/OBSERVABILITY.md for the query grammar.
func (db *TSDB) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if db == nil {
			_ = enc.Encode(tsdbIndex{})
			return
		}
		q := req.URL.Query()
		name := q.Get("name")
		if name == "" {
			idx := tsdbIndex{Series: db.Series()}
			for _, t := range db.tiers {
				idx.Tiers = append(idx.Tiers, tsdbTierInfo{StepMs: t.Step.Milliseconds(), Slots: t.Slots})
			}
			_ = enc.Encode(idx)
			return
		}
		now := db.clock()
		fallback := db.tiers[0].Span()
		since, ok := parseSince(q.Get("since"), now, fallback)
		if !ok {
			http.Error(w, "bad since (want duration or unix ms)", http.StatusBadRequest)
			return
		}
		window := time.Minute
		if v := q.Get("window"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				http.Error(w, "bad window (want duration)", http.StatusBadRequest)
				return
			}
			window = d
		}
		agg := q.Get("agg")
		if agg == "" {
			agg = "raw"
		}
		resp := tsdbResponse{Name: name, Agg: agg}
		switch {
		case agg == "raw":
			resp.Points = db.Points(name, since)
		case agg == "rate":
			resp.Points = db.RateSeries(name, since)
		case strings.HasPrefix(agg, "p"):
			// Written so NaN, which fails every comparison, fails this one.
			pct, err := strconv.ParseFloat(agg[1:], 64)
			if err != nil || !(pct > 0 && pct < 100) {
				http.Error(w, "bad agg (want raw|rate|p<1-99>)", http.StatusBadRequest)
				return
			}
			resp.Points = db.QuantileSeries(name, pct/100, window, since)
		default:
			http.Error(w, "bad agg (want raw|rate|p<1-99>)", http.StatusBadRequest)
			return
		}
		_ = enc.Encode(resp)
	})
}
