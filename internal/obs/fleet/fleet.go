// Package fleet is the cluster tier of the observability stack: one
// process (in practice the steward, behind -fleet-scrape) discovers
// every member of a deployment, scrapes each member's observability
// endpoint on a poll interval, and folds the results into per-node
// series and fleet-wide aggregates on the host's own registry, where
// the host's one TSDB retains them and its one engine evaluates the
// fleet-scope rules.
//
// Node-local observability answers "is this process healthy"; the
// questions the paper's deployment actually raises — is every published
// exNode still replication-factor covered, what fraction of the depot
// fabric is degraded, is the cluster shedding work faster than the
// error budget allows — only exist across processes. The fleet scraper
// owns exactly that cross-process view:
//
//   - Discovery: the L-Bone directory's /members sweep (every daemon
//     already heartbeats there for liveness) plus a static peer list
//     for processes that do not register.
//   - Scrape: parallel fan-out over the membership, each member under a
//     bounded per-peer deadline, pulling two documents: /metrics (the
//     fold's input, the member's own firing-alert count included) and
//     /healthz (up or degraded).
//   - Fold: reset-aware per-member counter deltas accumulate into
//     monotonic cluster series (fleet.shed, fleet.served, fleet.fps);
//     per-node gauges and p99s are mirrored under a node=<addr> label;
//     replica coverage is recomputed from live depot membership every
//     pass so a dying depot moves it immediately.
//   - Publish: the fold is the registry's "fleet" snapshot, so the
//     host's /debug/tsdb retains fleet.* beside its own series and the
//     host's engine evaluates slo.FleetDefaultRules (passed to it as
//     slo.Options.Rules) with the same alert plumbing node rules use —
//     /healthz degradation, slo.alert events, flight-recorder captures.
//
// /debug/fleet serves the health matrix (topology, per-node state,
// uptime, latency) plus the aggregates and the engine's fleet-scope
// alerts; lftop -fleet renders it.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"lonviz/internal/lbone"
	"lonviz/internal/obs"
)

// Member states in the health matrix.
const (
	StateUp       = "up"
	StateDegraded = "degraded"
	StateDown     = "down"
)

// Config configures New.
type Config struct {
	// Self is this process's own metrics address, reported in the
	// /debug/fleet topology (and scraped like any member once added with
	// AddStaticPeer).
	Self string
	// LBone, when set, is swept for members each pass: every registered
	// record carrying a MetricsAddr joins the fleet.
	LBone *lbone.Client
	// Peers are static metrics addresses scraped regardless of registry
	// state (never pruned).
	Peers []string
	// Interval is the poll interval (default 5s).
	Interval time.Duration
	// PeerTimeout bounds each member request (default
	// obs.DefaultPeerTimeout). The whole fan-out completes within
	// roughly one timeout, so a 10-member scrape fits one poll interval
	// even with members hanging.
	PeerTimeout time.Duration
	// Coverage, when set, is called each pass with the depot service
	// addresses currently up and returns per-exNode replica coverage
	// (steward.ReplicaCoverage bound to the adopted set).
	Coverage func(upDepots map[string]bool) map[string]float64
	// OnMemberState is called (from the scrape pass; must not block) on
	// every member state transition. The steward triggers targeted
	// audits off depots going down.
	OnMemberState func(m Member, from string)
	// PruneAfter is how long a discovered member stays in the matrix
	// (marked down) after leaving the registry sweep before it is
	// dropped (default 5m).
	PruneAfter time.Duration
	// Registry receives the "fleet" snapshot and the scraper's own
	// accounting; nil means obs.Default().
	Registry *obs.Registry
	// Tracer records fleet.scrape spans on passes with member
	// transitions; nil means obs.DefaultTracer().
	Tracer *obs.Tracer
	// Logger receives fleet.member events; nil means obs.DefaultLogger().
	Logger *obs.Logger
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// Member is one row of the health matrix.
type Member struct {
	// Addr is the member's metrics address — the scrape target and the
	// node=<addr> label value of its cluster series.
	Addr string `json:"addr"`
	// Kind is the member's directory kind (depot|edge|steward|agent),
	// or "peer" for static -fleet-peers entries.
	Kind string `json:"kind"`
	// ServiceAddr is the member's service endpoint from the directory
	// (the IBP address for depots), empty for static peers.
	ServiceAddr string `json:"service_addr,omitempty"`
	// State is up | degraded | down.
	State string `json:"state"`
	// Since is when the member entered its current state.
	Since time.Time `json:"since"`
	// LastScrape is the last successful /metrics pull.
	LastScrape time.Time `json:"last_scrape,omitempty"`
	// UptimeS is the member's process.uptime_s as scraped.
	UptimeS float64 `json:"uptime_s,omitempty"`
	// Health is the degraded reason from the member's /healthz.
	Health string `json:"health,omitempty"`
	// AlertsFiring is the member's own firing alert count, its
	// slo.alerts.firing gauge.
	AlertsFiring int `json:"alerts_firing,omitempty"`
	// P99Ms is the member's served-op p99 (max across the scraped
	// histogram families), the latency column of the matrix.
	P99Ms float64 `json:"p99_ms,omitempty"`
	// Err is the last scrape failure, empty while healthy.
	Err string `json:"err,omitempty"`
	// Static marks -fleet-peers entries (never pruned).
	Static bool `json:"static,omitempty"`
}

// HotItem is one hint's aggregated edge-tier popularity across every
// edge member (the cluster-demand feed for the hot-set replicator).
type HotItem struct {
	Hint  string `json:"hint"`
	Count int64  `json:"count"`
}

// memberState is the scraper's internal per-member record.
type memberState struct {
	Member
	missingSince time.Time          // absent from the discovery sweep since
	prev         map[string]float64 // reset-aware counter fold state
	prevTime     time.Time          // when prev was captured (rate base)
	scrapeErrs   float64            // failed pulls, published as scrape.errors{node=}
}

// scalarFoldFamilies are the scalar families mirrored per node into the
// fleet snapshot (summed over the member's label instances, re-labeled
// node=<addr>).
var scalarFoldFamilies = []string{
	obs.MIBPShed, obs.MDVSShed, obs.MEdgeShed, obs.MAgentRenderShed,
	obs.MIBPInflight, obs.MIBPQueueDepth,
	obs.MEdgeHits, obs.MEdgeMisses, obs.MEdgeFills,
	obs.MLorsFailedAttempts, obs.MSLOAlertsFiring,
}

// histFoldFamilies are the histogram families whose per-member p99 is
// mirrored as fleet.node.p99.ms{family=,node=}.
var histFoldFamilies = []string{
	obs.MIBPServerOpMs, obs.MEdgeServeMs, obs.MAgentFetchMs, obs.MDVSServerOpMs,
}

// shedFamilies sum into the fleet.shed accumulator and servedFamilies into
// fleet.served: each service that sheds (depot, DVS, edge, render queue)
// pairs with what it served — the three server loops' service-time
// histogram counts and the render requests the server agent took.
// fpsFamilies (histogram counts) feed the fleet.fps rate.
var (
	shedFamilies   = []string{obs.MIBPShed, obs.MDVSShed, obs.MEdgeShed, obs.MAgentRenderShed}
	servedFamilies = []string{obs.MIBPServerOpMs, obs.MEdgeServeMs, obs.MDVSServerOpMs, obs.MAgentServerRequests}
	fpsFamilies    = []string{obs.MAgentFetchMs}
)

// Fleet is a running federation scraper. All exported methods are safe
// for concurrent use.
type Fleet struct {
	cfg      Config
	interval time.Duration
	pc       *obs.PeerClient
	reg      *obs.Registry
	tracer   *obs.Tracer
	logger   *obs.Logger
	clock    func() time.Time

	mu          sync.Mutex
	members     map[string]*memberState // keyed by metrics addr
	folded      map[string]float64      // the "fleet" snapshot
	hot         map[string]int64        // aggregated edge.hot.<hint> counts
	shedTotal   float64
	servedTotal float64
	lboneErrs   float64 // failed directory sweeps
	lastPass    time.Time
	lastPassMs  float64
}

// New builds a fleet scraper. It starts no goroutines; drive it with
// Run (or Scrape directly in tests).
func New(cfg Config) *Fleet {
	interval := cfg.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if cfg.PruneAfter <= 0 {
		cfg.PruneAfter = 5 * time.Minute
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.DefaultTracer()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.DefaultLogger()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	f := &Fleet{
		cfg:      cfg,
		interval: interval,
		pc:       &obs.PeerClient{Timeout: cfg.PeerTimeout},
		reg:      reg,
		tracer:   tracer,
		logger:   logger,
		clock:    clock,
		members:  make(map[string]*memberState),
		folded:   make(map[string]float64),
		hot:      make(map[string]int64),
	}
	// The folded aggregates enter the host's TSDB as the "fleet"
	// snapshot: float-valued, rebuilt each scrape pass.
	reg.RegisterSnapshot("fleet", f.Aggregates)
	for _, peer := range cfg.Peers {
		f.members[peer] = &memberState{Member: Member{
			Addr: peer, Kind: "peer", State: StateDown, Since: clock(), Static: true,
		}}
	}
	return f
}

// Aggregates returns a copy of the current folded cluster aggregates —
// the "fleet" snapshot.
func (f *Fleet) Aggregates() map[string]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]float64, len(f.folded))
	for k, v := range f.folded {
		out[k] = v
	}
	return out
}

// AddStaticPeer adds one never-pruned scrape target at runtime — the
// hosting process adds its own bound address this way, so the fleet
// view includes the scraper itself.
func (f *Fleet) AddStaticPeer(addr, kind string) {
	if addr == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m := f.members[addr]; m != nil {
		m.Static = true
		if kind != "" {
			m.Kind = kind
		}
		return
	}
	f.members[addr] = &memberState{Member: Member{
		Addr: addr, Kind: kind, State: StateDown, Since: f.clock(), Static: true,
	}}
}

// Interval returns the poll interval.
func (f *Fleet) Interval() time.Duration { return f.interval }

// Members returns the health matrix rows, sorted by address.
func (f *Fleet) Members() []Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Member, 0, len(f.members))
	for _, m := range f.members {
		out = append(out, m.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// HotItems returns the top-n hints by aggregated edge-tier popularity
// across every edge member — the cluster-demand feed the hot-set
// replicator warms from.
func (f *Fleet) HotItems(n int) []HotItem {
	f.mu.Lock()
	out := make([]HotItem, 0, len(f.hot))
	for hint, count := range f.hot {
		out = append(out, HotItem{Hint: hint, Count: count})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Hint < out[j].Hint
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Run polls until stop closes — one Scrape immediately, then every
// interval. The host's TSDB samples the fold on its own clock.
func (f *Fleet) Run(stop <-chan struct{}) {
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		f.Scrape(context.Background())
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// peerMetrics is one member's /metrics document folded by family: each
// scalar family's instances summed, each histogram family's counts summed
// with the largest p99 kept.
type peerMetrics struct {
	scalars map[string]float64
	hists   map[string]histFold
}

// histFold is one histogram family of a member, over its label instances.
type histFold struct {
	count int64
	p99   float64
}

// scrapeResult is one member's raw pull before folding.
type scrapeResult struct {
	metrics  *peerMetrics
	err      error // /metrics failure: the member is down
	health   string
	healthOK bool
}

// Scrape runs discovery plus the parallel member fan-out and folds the
// results into the "fleet" snapshot.
func (f *Fleet) Scrape(ctx context.Context) {
	start := f.clock()
	f.discover(ctx)

	f.mu.Lock()
	targets := make([]*memberState, 0, len(f.members))
	for _, m := range f.members {
		targets = append(targets, m)
	}
	f.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].Addr < targets[j].Addr })

	results := make([]scrapeResult, len(targets))
	var wg sync.WaitGroup
	for i, m := range targets {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			results[i] = f.scrapeMember(ctx, addr)
		}(i, m.Addr)
	}
	wg.Wait()

	f.fold(targets, results, start)
}

// discover sweeps the directory and reconciles the membership: new
// records join, records gone from the sweep are marked down and pruned
// after PruneAfter, static peers persist.
func (f *Fleet) discover(ctx context.Context) {
	if f.cfg.LBone == nil {
		return
	}
	recs, err := f.cfg.LBone.Members(ctx)
	if err != nil {
		// A briefly unreachable directory must not tear down the matrix:
		// keep scraping the known membership.
		f.mu.Lock()
		f.lboneErrs++
		f.mu.Unlock()
		return
	}
	now := f.clock()
	seen := make(map[string]bool, len(recs))
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rec := range recs {
		if rec.MetricsAddr == "" {
			continue
		}
		seen[rec.MetricsAddr] = true
		m := f.members[rec.MetricsAddr]
		if m == nil {
			kind := rec.Kind
			if kind == "" {
				kind = lbone.KindDepot
			}
			m = &memberState{Member: Member{
				Addr: rec.MetricsAddr, Kind: kind, ServiceAddr: rec.Addr,
				State: StateDown, Since: now,
			}}
			f.members[rec.MetricsAddr] = m
		}
		m.ServiceAddr = rec.Addr
		if rec.Kind != "" {
			m.Kind = rec.Kind
		}
		m.missingSince = time.Time{}
	}
	for addr, m := range f.members {
		if m.Static || seen[addr] {
			continue
		}
		if m.missingSince.IsZero() {
			m.missingSince = now
		}
		if now.Sub(m.missingSince) > f.cfg.PruneAfter {
			delete(f.members, addr)
		}
	}
}

// scrapeMember pulls one member's two documents. /metrics is
// load-bearing: its failure marks the member down. /healthz decides
// up-vs-degraded.
func (f *Fleet) scrapeMember(ctx context.Context, addr string) scrapeResult {
	var res scrapeResult
	var raw map[string]json.RawMessage
	if err := f.pc.GetJSON(ctx, addr, "/metrics", nil, &raw); err != nil {
		res.err = err
		return res
	}
	res.metrics = parseMetrics(raw)

	status, body, err := f.pc.Get(ctx, addr, "/healthz", nil)
	switch {
	case err != nil:
		res.health = "healthz unreachable: " + err.Error()
	case status == 200:
		res.healthOK = true
	default:
		var deg struct {
			Reason string `json:"reason"`
		}
		_ = json.Unmarshal(body, &deg)
		if deg.Reason == "" {
			deg.Reason = fmt.Sprintf("healthz status %d", status)
		}
		res.health = deg.Reason
	}
	return res
}

// maxValue bounds what parseMetrics accepts of one entry: every family
// the fold reads is a count, a gauge of things or a duration, never
// negative, and past 2^53 a float64 no longer counts by ones. Entries
// outside [0, maxValue] are a peer's corruption, dropped so that the
// cluster totals built from them stay finite.
const maxValue = 1 << 53

// parseMetrics folds a /metrics document by family (obs.ParseLabels reads
// each name once), dropping entries that are neither a number nor a
// histogram, or that lie outside [0, maxValue].
func parseMetrics(raw map[string]json.RawMessage) *peerMetrics {
	pm := &peerMetrics{
		scalars: make(map[string]float64, len(raw)),
		hists:   make(map[string]histFold),
	}
	valid := func(v float64) bool { return v >= 0 && v <= maxValue }
	for name, msg := range raw {
		family, _ := obs.ParseLabels(name)
		var v float64
		if err := json.Unmarshal(msg, &v); err == nil {
			if valid(v) {
				pm.scalars[family] += v
			}
			continue
		}
		var h obs.HistogramSnapshot
		if err := json.Unmarshal(msg, &h); err == nil && valid(float64(h.Count)) && valid(h.P99) {
			hf := pm.hists[family]
			hf.count += h.Count
			hf.p99 = math.Max(hf.p99, h.P99)
			pm.hists[family] = hf
		}
	}
	return pm
}

// count is a family's running total: a counter's summed instances or a
// histogram's summed observation counts.
func (pm *peerMetrics) count(family string) (float64, bool) {
	if v, ok := pm.scalars[family]; ok {
		return v, true
	}
	h, ok := pm.hists[family]
	return float64(h.count), ok
}

// delta folds one member's cumulative value into a reset-aware
// increase: a decrease means the member restarted, and the post-restart
// value is the increase since the restart.
func (m *memberState) delta(key string, cur float64) float64 {
	if m.prev == nil {
		m.prev = make(map[string]float64)
	}
	prev, ok := m.prev[key]
	m.prev[key] = cur
	if !ok {
		// First sight of this counter contributes nothing: its history
		// predates the fleet's watch.
		return 0
	}
	d := cur - prev
	if d < 0 {
		d = cur
	}
	return d
}

// fold reconciles scrape results into member states and the cluster
// series. One pass, one lock hold.
func (f *Fleet) fold(targets []*memberState, results []scrapeResult, start time.Time) {
	now := f.clock()
	elapsed := now.Sub(start)

	type transition struct {
		m    Member
		from string
	}
	var transitions []transition

	f.mu.Lock()
	folded := make(map[string]float64, len(f.folded))
	hot := make(map[string]int64)
	states := map[string]int{StateUp: 0, StateDegraded: 0, StateDown: 0}
	depotsTotal, depotsNotUp := 0, 0
	upDepots := make(map[string]bool)
	var depotP99s []float64
	var shedDelta, servedDelta, fpsDelta float64
	var ratePeriod float64 // seconds covered by the counter deltas

	for i, m := range targets {
		if _, live := f.members[m.Addr]; !live {
			continue // pruned by discovery mid-pass
		}
		res := results[i]
		from := m.State
		switch {
		case res.err != nil:
			m.State = StateDown
			m.Err = res.err.Error()
			m.Health = ""
			m.AlertsFiring = 0
			if !m.missingSince.IsZero() {
				m.Err = "left registry: " + m.Err
			}
			m.scrapeErrs++
		case !res.healthOK:
			m.State = StateDegraded
			m.Err = ""
			m.Health = res.health
		default:
			m.State = StateUp
			m.Err = ""
			m.Health = ""
		}
		if m.scrapeErrs > 0 {
			folded[obs.Label("scrape.errors", "node", m.Addr)] = m.scrapeErrs
		}
		if m.State != from {
			m.Since = now
			if from == "" {
				from = "new"
			}
			transitions = append(transitions, transition{m.Member, from})
		}
		states[m.State]++
		if m.Kind == lbone.KindDepot {
			depotsTotal++
			if m.State == StateUp {
				if m.ServiceAddr != "" {
					upDepots[m.ServiceAddr] = true
				}
			} else {
				depotsNotUp++
			}
		}

		if res.metrics == nil {
			continue
		}
		pm := res.metrics
		m.LastScrape = now
		m.AlertsFiring = int(pm.scalars[obs.MSLOAlertsFiring])
		if up, ok := pm.scalars[obs.MProcessUptime]; ok {
			// An uptime below the member's previous reading is a restart
			// even when every counter happens to still be monotonic.
			if up < m.UptimeS {
				m.prev = nil
			}
			m.UptimeS = up
		}

		// Per-pass rate base: seconds since this member's previous fold.
		if !m.prevTime.IsZero() {
			if s := now.Sub(m.prevTime).Seconds(); s > ratePeriod {
				ratePeriod = s
			}
		}
		m.prevTime = now

		// Per-node scalar mirrors.
		for _, family := range scalarFoldFamilies {
			if v, ok := pm.scalars[family]; ok {
				folded[obs.Label(family, "node", m.Addr)] = v
			}
		}
		// Per-node p99 mirrors and the member latency column.
		m.P99Ms = 0
		for _, family := range histFoldFamilies {
			if h, ok := pm.hists[family]; ok {
				folded[obs.Label("node.p99.ms", "family", family, "node", m.Addr)] = h.p99
				m.P99Ms = math.Max(m.P99Ms, h.p99)
			}
		}
		if m.Kind == lbone.KindDepot && m.State == StateUp {
			if h, ok := pm.hists[obs.MIBPServerOpMs]; ok {
				depotP99s = append(depotP99s, h.p99)
			}
		}

		// Cluster accumulators from reset-aware deltas.
		for _, family := range shedFamilies {
			if v, ok := pm.count(family); ok {
				shedDelta += m.delta("shed:"+family, v)
			}
		}
		for _, family := range servedFamilies {
			if v, ok := pm.count(family); ok {
				servedDelta += m.delta("served:"+family, v)
			}
		}
		for _, family := range fpsFamilies {
			if v, ok := pm.count(family); ok {
				fpsDelta += m.delta("fps:"+family, v)
			}
		}
		// Edge demand: the edge snapshot exports per-hint popularity as
		// edge.hot.<hint> counts.
		for name, v := range pm.scalars {
			if hint, ok := strings.CutPrefix(name, "edge.hot."); ok {
				hot[hint] += int64(v)
			}
		}
	}

	if f.lboneErrs > 0 {
		folded[obs.Label("scrape.errors", "node", "lbone")] = f.lboneErrs
	}
	f.shedTotal += shedDelta
	f.servedTotal += servedDelta
	folded["shed"] = f.shedTotal
	folded["served"] = f.servedTotal
	if ratePeriod > 0 {
		folded["fps"] = fpsDelta / ratePeriod
	}
	if depotsTotal > 0 {
		folded["depots.degraded_ratio"] = float64(depotsNotUp) / float64(depotsTotal)
	}
	if len(depotP99s) > 0 {
		minP, maxP := depotP99s[0], depotP99s[0]
		for _, p := range depotP99s[1:] {
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
		}
		folded["depot.latency.spread.ms"] = maxP - minP
	}
	if f.cfg.Coverage != nil {
		coverage := f.cfg.Coverage(upDepots)
		minCov, has := 0.0, false
		for name, cov := range coverage {
			folded[obs.Label("replica.coverage", "exnode", name)] = cov
			if !has || cov < minCov {
				minCov, has = cov, true
			}
		}
		if has {
			folded["replica.coverage.min"] = minCov
		}
	}
	f.folded = folded
	f.hot = hot
	f.lastPass = now
	f.lastPassMs = float64(elapsed) / float64(time.Millisecond)
	onState := f.cfg.OnMemberState
	f.mu.Unlock()

	for state, n := range states {
		f.reg.Gauge(obs.Label(obs.MFleetMembers, "state", state)).Set(int64(n))
	}
	f.reg.Counter(obs.MFleetScrapes).Inc()

	if len(transitions) == 0 {
		return
	}
	// One span per pass-with-transitions; the fleet.member events stamp
	// its trace ID so matrix changes join against /debug/traces.
	ctx, span := f.tracer.StartSpan(context.Background(), obs.SpanFleetScrape)
	span.SetAttr("transitions", fmt.Sprintf("%d", len(transitions)))
	for _, tr := range transitions {
		args := []any{"node", tr.m.Addr, "kind", tr.m.Kind, "from", tr.from, "to", tr.m.State}
		if tr.m.Err != "" {
			args = append(args, "err", tr.m.Err)
		}
		lv := slog.LevelWarn
		if tr.m.State == StateUp {
			lv = slog.LevelInfo
		}
		f.logger.Log(ctx, lv, obs.EvFleetMember, args...)
		if onState != nil {
			onState(tr.m, tr.from)
		}
	}
	span.Finish()
}
