// Command lftop is a live terminal dashboard over the stack's /metrics
// and /debug/traces endpoints: the "top" for a Logistical Networking
// deployment. Point it at one or more observability addresses (depotd,
// lfserve, lfbrowse, dvsd, ... started with -metrics-addr) and it shows,
// refreshed in place:
//
//   - per-depot IBP round-trip p50/p95/p99 and operation error counts
//   - LoRS failover pressure and circuit-breaker state
//   - client agent cache hit rate and fetch frame rate
//   - overload control: admission in-flight/queue depth, shed rate,
//     request-coalesce hit rate, retry-budget refusals
//   - the slowest recent traces, so "why was that frame slow" is one
//     glance, not a log dig
//
// With -once it polls a single time and exits; with -json it emits the
// summary as one machine-readable JSON document instead of the dashboard
// (the CI smoke runs `lftop -once -json <addr>`).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/obs/slo"
)

func main() {
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	once := flag.Bool("once", false, "poll once, print, and exit")
	asJSON := flag.Bool("json", false, "emit one JSON summary document instead of the dashboard")
	nTraces := flag.Int("traces", 5, "slowest recent traces to show per target")
	history := flag.Bool("history", false, "show per-depot latency sparklines from each target's /debug/tsdb history")
	fleetMode := flag.Bool("fleet", false, "fleet mode: targets are scraping stewards; show each one's /debug/fleet health matrix with per-node sparklines from the cluster TSDB")
	histWindow := flag.Duration("history-window", 5*time.Minute, "how far back -history looks")
	waitReady := flag.Duration("wait-ready", 0, "poll each target's /readyz until it reports ready, up to this long, before the first sample (0 disables)")
	flag.Parse()
	targets := flag.Args()
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lftop [-interval d] [-once] [-json] [-traces n] [-history] [-wait-ready d] <host:port> [host:port ...]")
		fmt.Fprintln(os.Stderr, "  each target is a -metrics-addr endpoint of depotd/dvsd/lboned/lfserve/lfbrowse/lfsteward")
		os.Exit(2)
	}

	top := newTop(targets, *nTraces, *history, *histWindow)

	if *waitReady > 0 {
		if err := top.waitReady(*waitReady); err != nil {
			fmt.Fprintln(os.Stderr, "lftop:", err)
			os.Exit(1)
		}
	}

	if *fleetMode {
		runFleet(top, *once, *asJSON, *interval)
		return
	}

	if *once {
		sums := top.poll()
		if *asJSON {
			if err := writeJSON(os.Stdout, sums); err != nil {
				fmt.Fprintln(os.Stderr, "lftop:", err)
				os.Exit(1)
			}
		} else {
			render(os.Stdout, sums, false)
		}
		// Exit nonzero if nothing answered at all: a smoke run against a
		// dead endpoint should fail loudly.
		for _, s := range sums {
			if s.Err == "" {
				return
			}
		}
		fmt.Fprintln(os.Stderr, "lftop: no target reachable")
		os.Exit(1)
	}

	for {
		sums := top.poll()
		if *asJSON {
			if err := writeJSON(os.Stdout, sums); err != nil {
				fmt.Fprintln(os.Stderr, "lftop:", err)
				os.Exit(1)
			}
		} else {
			render(os.Stdout, sums, true)
		}
		time.Sleep(*interval)
	}
}

// runFleet is the -fleet main loop: poll every steward's /debug/fleet,
// render the health matrices, repeat (or once).
func runFleet(top *lftop, once, asJSON bool, interval time.Duration) {
	for {
		sums := make([]fleetSummary, 0, len(top.targets))
		for _, ep := range top.targets {
			sums = append(sums, top.pollFleet(ep))
		}
		if asJSON {
			if err := writeFleetJSON(os.Stdout, sums); err != nil {
				fmt.Fprintln(os.Stderr, "lftop:", err)
				os.Exit(1)
			}
		} else {
			renderFleet(os.Stdout, sums, !once)
		}
		if once {
			for _, s := range sums {
				if s.Err == "" {
					return
				}
			}
			fmt.Fprintln(os.Stderr, "lftop: no steward reachable")
			os.Exit(1)
		}
		time.Sleep(interval)
	}
}

func writeJSON(w io.Writer, sums []targetSummary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Targets []targetSummary `json:"targets"`
	}{sums})
}

// lftop polls a fixed target list and remembers the previous frame count
// per target so it can report a frames/sec rate between refreshes.
type lftop struct {
	pc         *obs.PeerClient
	targets    []string
	nTraces    int
	history    bool
	histWindow time.Duration
	prev       map[string]frameSample
}

// newTop builds the poller for a fixed target list.
func newTop(targets []string, nTraces int, history bool, histWindow time.Duration) *lftop {
	return &lftop{
		pc:         &obs.PeerClient{Timeout: 5 * time.Second},
		targets:    targets,
		nTraces:    nTraces,
		history:    history,
		histWindow: histWindow,
		prev:       make(map[string]frameSample, len(targets)),
	}
}

type frameSample struct {
	frames int64
	shed   float64
	at     time.Time
}

// depotStat is one depot's round-trip latency line, from the
// ibp.depot.ms{depot=...} histogram family.
type depotStat struct {
	Depot string  `json:"depot"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
	// Exemplar is the trace ID of the slowest-bucket sample the histogram
	// retained — paste it against /debug/traces to see why the tail is
	// the tail.
	Exemplar string `json:"exemplar,omitempty"`
}

// alertLine is one SLO alert from /debug/alerts.
type alertLine struct {
	Rule      string  `json:"rule"`
	Severity  string  `json:"severity"`
	Instance  string  `json:"instance,omitempty"`
	State     string  `json:"state"`
	Since     string  `json:"since"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

// historyLine is one series' recent history from /debug/tsdb, rendered as
// a sparkline over the -history-window.
type historyLine struct {
	Series string  `json:"series"`
	Points int     `json:"points"`
	LastMs float64 `json:"last_ms"`
	MaxMs  float64 `json:"max_ms"`
	Spark  string  `json:"spark"`
}

// loadStat is the overload-control pane: admission gate occupancy and
// shed/coalesce accounting summed across the target's layers (depot, DVS,
// render agent, client agent).
type loadStat struct {
	InFlight   float64 `json:"in_flight"`
	QueueDepth float64 `json:"queue_depth"`
	// Shed totals every BUSY rejection the target made (ibp.shed +
	// dvs.shed + agent.render.shed, all reasons); ShedPerSecond is its
	// rate between refreshes.
	Shed          float64 `json:"shed"`
	ShedPerSecond float64 `json:"shed_per_second"`
	Coalesced     float64 `json:"coalesced"`
	// CoalesceHitRate is coalesced / (coalesced + fetches): the share of
	// view-set requests that piggybacked instead of transferring.
	CoalesceHitRate      float64 `json:"coalesce_hit_rate"`
	BusyRejections       float64 `json:"busy_rejections"`
	RetryBudgetExhausted float64 `json:"retry_budget_exhausted"`
}

// hotSetLine is one view set from the edge cache's popularity tracker
// (the edge.hot.* snapshot keys), with its decayed access count.
type hotSetLine struct {
	ViewSet string  `json:"view_set"`
	Count   float64 `json:"count"`
}

// edgeStat is the edge-cache pane, present when the target exports the
// edge.* families (an lfedged, or anything embedding edge.Cache).
type edgeStat struct {
	CapacityBytes float64      `json:"capacity_bytes"`
	UsedBytes     float64      `json:"used_bytes"`
	Entries       float64      `json:"entries"`
	Evictions     float64      `json:"evictions"`
	HitRate       float64      `json:"hit_rate"`
	Hits          float64      `json:"hits"`
	Misses        float64      `json:"misses"`
	Fills         float64      `json:"fills"`
	FillErrors    float64      `json:"fill_errors"`
	HotSet        []hotSetLine `json:"hot_set,omitempty"`
}

// runtimeStat is the Go-runtime health pane, from the runtime.* families
// the prof harvester samples (present on any target with -metrics-addr).
type runtimeStat struct {
	HeapLiveMB    float64 `json:"heap_live_mb"`
	HeapGoalMB    float64 `json:"heap_goal_mb"`
	Goroutines    float64 `json:"goroutines"`
	GCPauses      int64   `json:"gc_pauses"`
	GCPauseP99Ms  float64 `json:"gc_pause_p99_ms"`
	SchedLatP99Ms float64 `json:"sched_latency_p99_ms"`
	MutexWaitMs   float64 `json:"mutex_wait_ms"`
	GCCycles      float64 `json:"gc_cycles"`
}

// captureLine is one forensic bundle from the flight recorder's
// /debug/capture index.
type captureLine struct {
	ID      string `json:"id"`
	Time    string `json:"time"`
	Trigger string `json:"trigger"`
	Files   int    `json:"files"`
	Bytes   int    `json:"bytes"`
}

// traceLine is one root span from /debug/traces, slowest-first.
type traceLine struct {
	TraceID string  `json:"trace_id"`
	Name    string  `json:"name"`
	Ms      float64 `json:"ms"`
	Spans   int     `json:"spans"`
}

// targetSummary is everything lftop shows for one endpoint; it doubles as
// the -json schema.
type targetSummary struct {
	Endpoint        string             `json:"endpoint"`
	Err             string             `json:"err,omitempty"`
	Depots          []depotStat        `json:"depots,omitempty"`
	OpErrors        map[string]float64 `json:"op_errors,omitempty"`
	FailedAttempts  float64            `json:"failed_attempts"`
	RetryPasses     float64            `json:"retry_passes"`
	CircuitOpen     float64            `json:"circuit_open"`
	CircuitTrips    float64            `json:"circuit_trips"`
	CacheHitRate    float64            `json:"cache_hit_rate"`
	Frames          int64              `json:"frames"`
	FrameMeanMs     float64            `json:"frame_mean_ms"`
	FramesPerSecond float64            `json:"frames_per_second"`
	Load            loadStat           `json:"load"`
	Runtime         *runtimeStat       `json:"runtime,omitempty"`
	Captures        []captureLine      `json:"captures,omitempty"`
	Edge            *edgeStat          `json:"edge,omitempty"`
	SlowTraces      []traceLine        `json:"slow_traces,omitempty"`
	AlertsFiring    int                `json:"alerts_firing"`
	Alerts          []alertLine        `json:"alerts,omitempty"`
	History         []historyLine      `json:"history,omitempty"`
}

func (t *lftop) poll() []targetSummary {
	out := make([]targetSummary, 0, len(t.targets))
	for _, ep := range t.targets {
		out = append(out, t.pollOne(ep))
	}
	return out
}

func (t *lftop) pollOne(ep string) targetSummary {
	sum := targetSummary{Endpoint: ep}
	var snap map[string]json.RawMessage
	if err := t.pc.GetJSON(context.Background(), ep, "/metrics", nil, &snap); err != nil {
		sum.Err = err.Error()
		return sum
	}
	summarizeMetrics(snap, &sum)

	now := time.Now()
	if prev, ok := t.prev[ep]; ok && now.After(prev.at) {
		if sum.Frames >= prev.frames {
			sum.FramesPerSecond = float64(sum.Frames-prev.frames) / now.Sub(prev.at).Seconds()
		}
		if sum.Load.Shed >= prev.shed {
			sum.Load.ShedPerSecond = (sum.Load.Shed - prev.shed) / now.Sub(prev.at).Seconds()
		}
	}
	t.prev[ep] = frameSample{frames: sum.Frames, shed: sum.Load.Shed, at: now}

	// Traces are optional: a scrape target without a tracer still renders.
	var spans []obs.SpanRecord
	if t.pc.GetJSON(context.Background(), ep, "/debug/traces", nil, &spans) == nil {
		sum.SlowTraces = slowestTraces(spans, t.nTraces)
	}
	// Alerts likewise: older targets without an SLO engine just skip the pane.
	var alerts alertDoc
	if t.pc.GetJSON(context.Background(), ep, "/debug/alerts", nil, &alerts) == nil {
		sum.AlertsFiring = alerts.Firing
		sum.Alerts = alerts.lines()
	}
	// Flight-recorder bundles, when the target runs one.
	if caps, err := t.fetchCaptures(ep); err == nil {
		sum.Captures = caps
	}
	if t.history {
		sum.History = t.fetchHistory(ep)
	}
	return sum
}

// fetchCaptures pulls the flight recorder's bundle index.
func (t *lftop) fetchCaptures(ep string) ([]captureLine, error) {
	var doc struct {
		Bundles []struct {
			ID      string         `json:"id"`
			Time    time.Time      `json:"time"`
			Trigger string         `json:"trigger"`
			Files   map[string]int `json:"files"`
		} `json:"bundles"`
	}
	if err := t.pc.GetJSON(context.Background(), ep, "/debug/capture", nil, &doc); err != nil {
		return nil, err
	}
	out := make([]captureLine, 0, len(doc.Bundles))
	for _, b := range doc.Bundles {
		cl := captureLine{
			ID: b.ID, Time: b.Time.UTC().Format(time.RFC3339),
			Trigger: b.Trigger, Files: len(b.Files),
		}
		for _, n := range b.Files {
			cl.Bytes += n
		}
		out = append(out, cl)
	}
	return out, nil
}

// alertDoc is the alert part of /debug/alerts and of /debug/fleet.
type alertDoc struct {
	Firing int         `json:"firing"`
	Alerts []slo.Alert `json:"alerts"`
}

// lines renders the alerts as the -json alert lines.
func (d alertDoc) lines() []alertLine {
	var out []alertLine
	for _, a := range d.Alerts {
		out = append(out, alertLine{
			Rule: a.Rule, Severity: a.Severity, Instance: a.Instance, State: a.State,
			Since: a.Since.UTC().Format(time.RFC3339), Value: a.Value, Threshold: a.Threshold,
		})
	}
	return out
}

// seriesNames lists the series of a TSDB index (path is /debug/tsdb or
// /debug/fleet/tsdb) whose names start with prefix.
func (t *lftop) seriesNames(ep, path, prefix string) []string {
	var idx struct {
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	if t.pc.GetJSON(context.Background(), ep, path, nil, &idx) != nil {
		return nil
	}
	var out []string
	for _, s := range idx.Series {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s.Name)
		}
	}
	return out
}

// fetchSeries pulls one series' history over the -history-window — raw,
// or agg (p99) over 30 s windows — and renders it as a sparkline.
func (t *lftop) fetchSeries(ep, path, name, agg string) (historyLine, bool) {
	q := url.Values{"name": {name}, "since": {t.histWindow.String()}}
	if agg != "" {
		q.Set("agg", agg)
		q.Set("window", "30s")
	}
	var series struct {
		Points []obs.Point `json:"points"`
	}
	if t.pc.GetJSON(context.Background(), ep, path, q, &series) != nil || len(series.Points) == 0 {
		return historyLine{}, false
	}
	h := historyLine{
		Series: name,
		Points: len(series.Points),
		LastMs: series.Points[len(series.Points)-1].V,
		Spark:  sparkline(series.Points),
	}
	for _, p := range series.Points {
		if p.V > h.MaxMs {
			h.MaxMs = p.V
		}
	}
	return h, true
}

// fetchHistory renders the per-depot round-trip p99 over the history
// window as sparklines.
func (t *lftop) fetchHistory(ep string) []historyLine {
	var out []historyLine
	for _, name := range t.seriesNames(ep, "/debug/tsdb", obs.MIBPDepotMs+"{") {
		if h, ok := t.fetchSeries(ep, "/debug/tsdb", name, "p99"); ok {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series < out[j].Series })
	return out
}

// sparkline renders points as unicode block characters, min..max scaled,
// downsampled to at most 60 columns.
func sparkline(points []obs.Point) string {
	const levels = "▁▂▃▄▅▆▇█"
	const maxCols = 60
	vals := make([]float64, 0, maxCols)
	if len(points) <= maxCols {
		for _, p := range points {
			vals = append(vals, p.V)
		}
	} else {
		// Bucket-max downsample: spikes must survive the squeeze.
		per := (len(points) + maxCols - 1) / maxCols
		for i := 0; i < len(points); i += per {
			maxV := points[i].V
			for j := i + 1; j < i+per && j < len(points); j++ {
				if points[j].V > maxV {
					maxV = points[j].V
				}
			}
			vals = append(vals, maxV)
		}
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	runes := []rune(levels)
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(runes)-1))
		}
		b.WriteRune(runes[idx])
	}
	return b.String()
}

// waitReady blocks until every target's /readyz answers 200, or the
// timeout passes; stragglers are reported with their startup phase.
func (t *lftop) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	pending := append([]string(nil), t.targets...)
	lastPhase := make(map[string]string, len(pending))
	for {
		var still []string
		for _, ep := range pending {
			if ok, phase := t.checkReady(ep); !ok {
				lastPhase[ep] = phase
				still = append(still, ep)
			}
		}
		if len(still) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			parts := make([]string, 0, len(still))
			for _, ep := range still {
				parts = append(parts, fmt.Sprintf("%s (%s)", ep, lastPhase[ep]))
			}
			return fmt.Errorf("not ready after %v: %s", timeout, strings.Join(parts, ", "))
		}
		pending = still
		time.Sleep(100 * time.Millisecond)
	}
}

// checkReady probes one /readyz; on 503 it returns the reported startup
// phase so the eventual timeout error says what each target was stuck on.
func (t *lftop) checkReady(ep string) (bool, string) {
	status, body, err := t.pc.Get(context.Background(), ep, "/readyz", nil)
	if err != nil {
		return false, err.Error()
	}
	if status == http.StatusOK {
		return true, ""
	}
	var doc struct {
		Phase string `json:"phase"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Phase != "" {
		return false, doc.Phase
	}
	return false, fmt.Sprintf("HTTP %d", status)
}

func summarizeMetrics(snap map[string]json.RawMessage, sum *targetSummary) {
	num := func(name string) float64 {
		var v float64
		if raw, ok := snap[name]; ok {
			_ = json.Unmarshal(raw, &v)
		}
		return v
	}
	hist := func(name string) obs.HistogramSnapshot {
		var h obs.HistogramSnapshot
		if raw, ok := snap[name]; ok {
			_ = json.Unmarshal(raw, &h)
		}
		return h
	}
	for name := range snap {
		family, labels := obs.ParseLabels(name)
		if labels == nil {
			continue
		}
		switch family {
		case obs.MIBPDepotMs:
			if h := hist(name); h.Count > 0 {
				sum.Depots = append(sum.Depots, depotStat{
					Depot: labels["depot"], Count: h.Count, P50: h.P50, P95: h.P95, P99: h.P99,
					Exemplar: h.ExemplarTrace,
				})
			}
		case obs.MIBPOpErrors:
			if v := num(name); v > 0 {
				if sum.OpErrors == nil {
					sum.OpErrors = make(map[string]float64)
				}
				sum.OpErrors[labels["op"]] = v
			}
		case obs.MAgentFetchMs:
			h := hist(name)
			sum.Frames += h.Count
			sum.FrameMeanMs += h.Sum
		case obs.MIBPShed, obs.MDVSShed, obs.MAgentRenderShed:
			// Shed counters are labeled by reason; every instance of the
			// three families folds into one total for the load pane.
			sum.Load.Shed += num(name)
		}
	}
	if sum.Frames > 0 {
		sum.FrameMeanMs /= float64(sum.Frames)
	}
	// Runtime pane: present on any target whose stack runs the prof
	// harvester (the families register eagerly, so the gauge key exists
	// even before the first GC).
	if _, ok := snap[obs.MRuntimeGoroutines]; ok {
		gc := hist(obs.MRuntimeGCPauseMs)
		sum.Runtime = &runtimeStat{
			HeapLiveMB:    num(obs.MRuntimeHeapLiveBytes) / (1 << 20),
			HeapGoalMB:    num(obs.MRuntimeHeapGoalBytes) / (1 << 20),
			Goroutines:    num(obs.MRuntimeGoroutines),
			GCPauses:      gc.Count,
			GCPauseP99Ms:  gc.P99,
			SchedLatP99Ms: hist(obs.MRuntimeSchedLatencyMs).P99,
			MutexWaitMs:   num(obs.MRuntimeMutexWaitMs),
			GCCycles:      num(obs.MRuntimeGCCycles),
		}
	}
	// Edge pane: present only when the target embeds an edge cache (the
	// edge.cache.* snapshot keys are registered by edge.Cache).
	if _, ok := snap["edge.cache.capacity"]; ok {
		es := &edgeStat{
			CapacityBytes: num("edge.cache.capacity"),
			UsedBytes:     num("edge.cache.used"),
			Entries:       num("edge.cache.entries"),
			Evictions:     num("edge.cache.evictions"),
			HitRate:       num("edge.cache.hit_rate"),
			Hits:          num(obs.MEdgeHits),
			Misses:        num(obs.MEdgeMisses),
			Fills:         num(obs.MEdgeFills),
			FillErrors:    num(obs.MEdgeFillErrors),
		}
		for name := range snap {
			if vs, ok := strings.CutPrefix(name, "edge.hot."); ok {
				es.HotSet = append(es.HotSet, hotSetLine{ViewSet: vs, Count: num(name)})
			}
		}
		sort.Slice(es.HotSet, func(i, j int) bool {
			if es.HotSet[i].Count != es.HotSet[j].Count {
				return es.HotSet[i].Count > es.HotSet[j].Count
			}
			return es.HotSet[i].ViewSet < es.HotSet[j].ViewSet
		})
		sum.Edge = es
	}
	sort.Slice(sum.Depots, func(i, j int) bool { return sum.Depots[i].Depot < sum.Depots[j].Depot })
	sum.FailedAttempts = num(obs.MLorsFailedAttempts)
	sum.RetryPasses = num(obs.MLorsRetryPasses)
	sum.CircuitOpen = num(obs.MLorsCircuitOpen)
	sum.CircuitTrips = num(obs.MLorsCircuitTrips)
	sum.CacheHitRate = num(obs.MAgentHitRate)
	sum.Load.InFlight = num(obs.MIBPInflight) + num(obs.MDVSInflight)
	sum.Load.QueueDepth = num(obs.MIBPQueueDepth) + num(obs.MDVSQueueDepth) + num(obs.MAgentRenderQueueDepth)
	sum.Load.Coalesced = num(obs.MAgentCoalesced)
	sum.Load.BusyRejections = num(obs.MLorsBusyRejections)
	sum.Load.RetryBudgetExhausted = num(obs.MLorsRetryBudgetExhausted)
	if total := sum.Load.Coalesced + float64(sum.Frames); total > 0 {
		sum.Load.CoalesceHitRate = sum.Load.Coalesced / total
	}
}

// slowestTraces reduces a span dump to its root spans, slowest first. A
// root is a span with no parent, or whose parent is remote (the local
// half of a cross-host trace).
func slowestTraces(spans []obs.SpanRecord, n int) []traceLine {
	perTrace := make(map[uint64]int, len(spans))
	for _, s := range spans {
		perTrace[s.TraceID]++
	}
	var roots []traceLine
	for _, s := range spans {
		if s.ParentID != 0 && !s.Remote {
			continue
		}
		roots = append(roots, traceLine{
			TraceID: fmt.Sprintf("%016x", s.TraceID),
			Name:    s.Name,
			Ms:      s.DurMs,
			Spans:   perTrace[s.TraceID],
		})
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Ms > roots[j].Ms })
	if len(roots) > n {
		roots = roots[:n]
	}
	return roots
}

func render(w io.Writer, sums []targetSummary, live bool) {
	if live {
		fmt.Fprint(w, "\x1b[2J\x1b[H") // clear screen, home cursor
	}
	fmt.Fprintf(w, "lftop — %s — %d target(s)\n", time.Now().Format("15:04:05"), len(sums))
	for _, s := range sums {
		fmt.Fprintf(w, "\n== %s ==\n", s.Endpoint)
		if s.Err != "" {
			fmt.Fprintf(w, "  UNREACHABLE: %s\n", s.Err)
			continue
		}
		if len(s.Depots) > 0 {
			fmt.Fprintf(w, "  %-24s %8s %9s %9s %9s  %s\n", "depot", "ops", "p50(ms)", "p95(ms)", "p99(ms)", "exemplar")
			for _, d := range s.Depots {
				ex := d.Exemplar
				if ex == "" {
					ex = "-"
				}
				fmt.Fprintf(w, "  %-24s %8d %9.2f %9.2f %9.2f  %s\n", d.Depot, d.Count, d.P50, d.P95, d.P99, ex)
			}
		}
		if len(s.OpErrors) > 0 {
			ops := make([]string, 0, len(s.OpErrors))
			for op := range s.OpErrors {
				ops = append(ops, op)
			}
			sort.Strings(ops)
			fmt.Fprint(w, "  errors:")
			for _, op := range ops {
				fmt.Fprintf(w, " %s=%.0f", op, s.OpErrors[op])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  transfer: failed_attempts=%.0f retry_passes=%.0f circuits_open=%.0f circuit_trips=%.0f\n",
			s.FailedAttempts, s.RetryPasses, s.CircuitOpen, s.CircuitTrips)
		fmt.Fprintf(w, "  client:   frames=%d mean=%.2fms rate=%.1f/s cache_hit_rate=%.0f%%\n",
			s.Frames, s.FrameMeanMs, s.FramesPerSecond, 100*s.CacheHitRate)
		fmt.Fprintf(w, "  load:     in_flight=%.0f queue=%.0f shed=%.0f (%.1f/s) coalesce_hit=%.0f%% busy_rejections=%.0f budget_exhausted=%.0f\n",
			s.Load.InFlight, s.Load.QueueDepth, s.Load.Shed, s.Load.ShedPerSecond,
			100*s.Load.CoalesceHitRate, s.Load.BusyRejections, s.Load.RetryBudgetExhausted)
		if s.Runtime != nil {
			fmt.Fprintf(w, "  runtime:  heap=%.1f/%.1fMB goroutines=%.0f gc_pause_p99=%.2fms (%d pauses, %.0f cycles) sched_p99=%.2fms mutex_wait=%.0fms\n",
				s.Runtime.HeapLiveMB, s.Runtime.HeapGoalMB, s.Runtime.Goroutines,
				s.Runtime.GCPauseP99Ms, s.Runtime.GCPauses, s.Runtime.GCCycles,
				s.Runtime.SchedLatP99Ms, s.Runtime.MutexWaitMs)
		}
		if len(s.Captures) > 0 {
			fmt.Fprintln(w, "  captures:")
			for _, c := range s.Captures {
				fmt.Fprintf(w, "    %-24s %s trigger=%s files=%d bytes=%d\n",
					c.ID, c.Time, c.Trigger, c.Files, c.Bytes)
			}
		}
		if s.Edge != nil {
			fmt.Fprintf(w, "  edge:     hit_rate=%.0f%% entries=%.0f used=%.1f/%.1fMB hits=%.0f misses=%.0f fills=%.0f (%.0f failed) evictions=%.0f\n",
				100*s.Edge.HitRate, s.Edge.Entries,
				s.Edge.UsedBytes/(1<<20), s.Edge.CapacityBytes/(1<<20),
				s.Edge.Hits, s.Edge.Misses, s.Edge.Fills, s.Edge.FillErrors, s.Edge.Evictions)
			if len(s.Edge.HotSet) > 0 {
				fmt.Fprint(w, "  hot set: ")
				for i, h := range s.Edge.HotSet {
					if i > 0 {
						fmt.Fprint(w, "  ")
					}
					fmt.Fprintf(w, "%s=%.1f", h.ViewSet, h.Count)
				}
				fmt.Fprintln(w)
			}
		}
		if len(s.History) > 0 {
			fmt.Fprintln(w, "  history (p99 ms):")
			for _, h := range s.History {
				fmt.Fprintf(w, "    %-32s %s last=%.1f max=%.1f (%d pts)\n",
					h.Series, h.Spark, h.LastMs, h.MaxMs, h.Points)
			}
		}
		if len(s.Alerts) > 0 {
			fmt.Fprintf(w, "  alerts (%d firing):\n", s.AlertsFiring)
			for _, a := range s.Alerts {
				fmt.Fprintf(w, "    %-9s %-8s %-24s %s value=%.2f threshold=%.2f\n",
					a.State, a.Severity, a.Rule, a.Instance, a.Value, a.Threshold)
			}
		}
		if len(s.SlowTraces) > 0 {
			fmt.Fprintln(w, "  slowest traces:")
			for _, tl := range s.SlowTraces {
				fmt.Fprintf(w, "    %8.2fms %-20s trace=%s (%d spans)\n", tl.Ms, tl.Name, tl.TraceID, tl.Spans)
			}
		}
	}
}
