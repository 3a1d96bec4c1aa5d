package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lonviz/internal/lbone"
	"lonviz/internal/obs"
	"lonviz/internal/obs/slo"
)

// fakeClock drives the fleet's fold timestamps and the stack's TSDB and engine.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.UnixMilli(1_700_000_000_000)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// fakeMember is a scrape target with controllable documents. It serves
// every path an observability stack does and counts what it is asked for.
type fakeMember struct {
	srv *httptest.Server

	mu           sync.Mutex
	metrics      map[string]any
	healthStatus int
	healthBody   string
	delay        time.Duration
	requests     map[string]int // by path
}

func newFakeMember(t *testing.T) *fakeMember {
	t.Helper()
	m := &fakeMember{metrics: map[string]any{}, healthStatus: 200, requests: map[string]int{}}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		m.mu.Lock()
		delay, snap := m.delay, make(map[string]any, len(m.metrics))
		for k, v := range m.metrics {
			snap[k] = v
		}
		m.mu.Unlock()
		time.Sleep(delay)
		_ = json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		m.mu.Lock()
		status, body := m.healthStatus, m.healthBody
		m.mu.Unlock()
		w.WriteHeader(status)
		if body != "" {
			_, _ = w.Write([]byte(body))
		} else {
			_, _ = w.Write([]byte("ok"))
		}
	})
	m.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		m.requests[r.URL.Path]++
		m.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(m.srv.Close)
	return m
}

func (m *fakeMember) addr() string { return strings.TrimPrefix(m.srv.URL, "http://") }

func (m *fakeMember) set(key string, v any) {
	m.mu.Lock()
	m.metrics[key] = v
	m.mu.Unlock()
}

func (m *fakeMember) setHealth(status int, body string) {
	m.mu.Lock()
	m.healthStatus, m.healthBody = status, body
	m.mu.Unlock()
}

// hist is a /metrics histogram document the way obs renders one.
func hist(count int64, p99 float64) map[string]any {
	return map[string]any{"count": count, "p99": p99}
}

func memberByAddr(f *Fleet, addr string) (Member, bool) {
	for _, m := range f.Members() {
		if m.Addr == addr {
			return m, true
		}
	}
	return Member{}, false
}

func TestScrapeStatesUpDegradedDown(t *testing.T) {
	up := newFakeMember(t)
	up.set(obs.MProcessUptime, 120.5)
	up.set(obs.Label(obs.MIBPServerOpMs, "op", "load"), hist(10, 7.5))

	degraded := newFakeMember(t)
	degraded.setHealth(503, `{"status":"degraded","reason":"slo: critical alert firing: x"}`)
	degraded.set(obs.MSLOAlertsFiring, 2)

	down := newFakeMember(t)
	downAddr := down.addr()
	down.srv.Close()

	reg := obs.NewRegistry()
	f := New(Config{
		Peers:    []string{up.addr(), degraded.addr(), downAddr},
		Registry: reg,
	})
	f.Scrape(context.Background())

	m, _ := memberByAddr(f, up.addr())
	if m.State != StateUp || m.Err != "" {
		t.Fatalf("up member = %+v", m)
	}
	if m.UptimeS != 120.5 {
		t.Fatalf("uptime = %v, want 120.5", m.UptimeS)
	}
	if m.P99Ms != 7.5 {
		t.Fatalf("p99 = %v, want 7.5", m.P99Ms)
	}

	m, _ = memberByAddr(f, degraded.addr())
	if m.State != StateDegraded {
		t.Fatalf("degraded member = %+v", m)
	}
	if !strings.Contains(m.Health, "critical alert firing") {
		t.Fatalf("degraded reason not surfaced: %q", m.Health)
	}
	if m.AlertsFiring != 2 {
		t.Fatalf("alerts firing = %d, want 2", m.AlertsFiring)
	}

	m, _ = memberByAddr(f, downAddr)
	if m.State != StateDown || m.Err == "" {
		t.Fatalf("down member = %+v", m)
	}

	// Self-accounting lands in the supplied registry.
	snap := reg.Snapshot()
	if v, _ := snap[obs.Label(obs.MFleetMembers, "state", StateUp)].(int64); v != 1 {
		t.Fatalf("members{state=up} = %v", snap[obs.Label(obs.MFleetMembers, "state", StateUp)])
	}
	if v, _ := snap[obs.Label(obs.MFleetMembers, "state", StateDown)].(int64); v != 1 {
		t.Fatalf("members{state=down} = %v", snap[obs.Label(obs.MFleetMembers, "state", StateDown)])
	}
	if v, _ := snap[obs.MFleetScrapes].(int64); v != 1 {
		t.Fatalf("scrapes = %v, want 1", snap[obs.MFleetScrapes])
	}
	// The per-node p99 mirror entered the cluster aggregates.
	agg := f.Aggregates()
	key := obs.Label("node.p99.ms", "family", obs.MIBPServerOpMs, "node", up.addr())
	if agg[key] != 7.5 {
		t.Fatalf("aggregate %s = %v, want 7.5", key, agg[key])
	}
}

func TestSlowPeerBoundedByDeadline(t *testing.T) {
	slow := newFakeMember(t)
	slow.mu.Lock()
	slow.delay = 3 * time.Second
	slow.mu.Unlock()

	f := New(Config{
		Peers:       []string{slow.addr()},
		PeerTimeout: 100 * time.Millisecond,
	})
	start := time.Now()
	f.Scrape(context.Background())
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("scrape took %v; the peer deadline did not bound the hang", elapsed)
	}
	if m, _ := memberByAddr(f, slow.addr()); m.State != StateDown {
		t.Fatalf("hung peer = %+v, want down", m)
	}
}

// TestScrapeIsTwoRequestsPerMember: a pass asks each member for /metrics
// and /healthz and nothing else, whatever else the member serves.
func TestScrapeIsTwoRequestsPerMember(t *testing.T) {
	a, b := newFakeMember(t), newFakeMember(t)
	b.setHealth(503, `{"status":"degraded","reason":"x"}`)
	f := New(Config{Peers: []string{a.addr(), b.addr()}, Registry: obs.NewRegistry()})
	f.Scrape(context.Background())
	f.Scrape(context.Background())
	for _, m := range []*fakeMember{a, b} {
		m.mu.Lock()
		got := fmt.Sprint(m.requests)
		m.mu.Unlock()
		if want := "map[/healthz:2 /metrics:2]"; got != want {
			t.Errorf("member %s was asked for %s in two passes, want %s", m.addr(), got, want)
		}
	}
}

// TestFleetServedCountsServers: fleet.served, the fleet-shed-burn
// denominator, counts what the fleet's servers served — the depot, edge and
// DVS loops' service-time histograms and the server agent's render
// requests — and nothing a client did.
func TestFleetServedCountsServers(t *testing.T) {
	client, dvsd, render := newFakeMember(t), newFakeMember(t), newFakeMember(t)
	f := New(Config{Peers: []string{client.addr(), dvsd.addr(), render.addr()}, Registry: obs.NewRegistry()})
	ctx := context.Background()
	f.Scrape(ctx) // first sight of every family contributes nothing
	// dvs.op.ms was the DVS client's histogram.
	client.set("dvs.op.ms{op=GET}", hist(500, 1))
	client.set(obs.Label(obs.MIBPOpMs, "op", "LOAD"), hist(900, 1))
	dvsd.set(obs.Label(obs.MDVSServerOpMs, "op", "GET"), hist(0, 0))
	render.set(obs.MAgentServerRequests, 0.0)
	f.Scrape(ctx)
	dvsd.set(obs.Label(obs.MDVSServerOpMs, "op", "GET"), hist(7, 1))
	dvsd.set(obs.Label(obs.MDVSServerOpMs, "op", "PUT"), hist(3, 1))
	client.set("dvs.op.ms{op=GET}", hist(800, 1))
	render.set(obs.MAgentServerRequests, 4.0)
	f.Scrape(ctx)
	if got := f.Aggregates()["served"]; got != 14 {
		t.Fatalf("fleet.served = %v, want 14 (10 DVS requests served + 4 renders; client ops add 0)", got)
	}
}

// FuzzFleetParseMetrics: whatever two successive documents a peer answers
// /metrics with, the fold of both passes (counter deltas, restarts,
// per-node mirrors) neither panics nor leaves a cluster aggregate or the
// member's row outside the finite, non-negative range.
func FuzzFleetParseMetrics(f *testing.F) {
	f.Add([]byte(`{"ibp.shed{reason=queue_full}": 3, "ibp.server.op.ms{op=LOAD}": {"count": 9, "p99": 4.5}, "process.uptime_s": 12}`),
		[]byte(`{"ibp.shed{reason=queue_full}": 1, "ibp.server.op.ms{op=LOAD}": {"count": 20, "p99": 2}, "process.uptime_s": 1}`))
	f.Add([]byte(`{"edge.hot.vs-1": 2, "edge.hits": 1e308, "edge.hits{x=y}": 1e308, "slo.alerts.firing": 2}`),
		[]byte(`{"dvs.shed": -1.7e308, "edge.shed": 1.7e308, "agent.server.requests": 9e15}`))
	f.Add([]byte(`{"ibp.shed{": -1, "{}": {"count": -5}, "agent.fetch.ms{class=wan": {"p99": 1e309}}`),
		[]byte(`{"a{b=c,d}": [1], "": null, "x": "7"}`))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		fl := New(Config{Registry: obs.NewRegistry(), Logger: obs.NewLogger(io.Discard, 1), Tracer: obs.NewTracer(1)})
		m := &memberState{Member: Member{Addr: "peer:1", Kind: lbone.KindDepot, ServiceAddr: "d:1"}}
		fl.members[m.Addr] = m
		for _, doc := range [][]byte{first, second} {
			var raw map[string]json.RawMessage
			if json.Unmarshal(doc, &raw) != nil {
				return
			}
			fl.fold([]*memberState{m}, []scrapeResult{{metrics: parseMetrics(raw), healthOK: true}}, time.Now())
		}
		row := fl.Members()[0]
		for k, v := range fl.Aggregates() {
			if !(v >= 0 && v <= math.MaxFloat64) {
				t.Fatalf("aggregate %s = %v", k, v)
			}
		}
		if row.AlertsFiring < 0 || !(row.P99Ms >= 0 && row.UptimeS >= 0) {
			t.Fatalf("member row %+v", row)
		}
	})
}

func TestCounterResetFoldsAsRestart(t *testing.T) {
	m := newFakeMember(t)
	shedKey := obs.Label(obs.MIBPShed, "reason", "queue_full")
	f := New(Config{Peers: []string{m.addr()}})
	ctx := context.Background()

	m.set(shedKey, 100.0)
	f.Scrape(ctx) // first sight: history predates the watch, contributes 0
	if got := f.Aggregates()["shed"]; got != 0 {
		t.Fatalf("shed after first scrape = %v, want 0", got)
	}
	m.set(shedKey, 150.0)
	f.Scrape(ctx)
	if got := f.Aggregates()["shed"]; got != 50 {
		t.Fatalf("shed after increase = %v, want 50", got)
	}
	// The counter dropping means the process restarted: the post-restart
	// value is the increase since the restart, and the cluster total keeps
	// climbing instead of jumping backwards.
	m.set(shedKey, 10.0)
	f.Scrape(ctx)
	if got := f.Aggregates()["shed"]; got != 60 {
		t.Fatalf("shed after reset = %v, want 60", got)
	}
}

func TestUptimeDropResetsFoldState(t *testing.T) {
	m := newFakeMember(t)
	shedKey := obs.Label(obs.MIBPShed, "reason", "queue_full")
	f := New(Config{Peers: []string{m.addr()}})
	ctx := context.Background()

	m.set(obs.MProcessUptime, 300.0)
	m.set(shedKey, 100.0)
	f.Scrape(ctx)
	m.set(shedKey, 120.0)
	f.Scrape(ctx) // +20
	// Restart with a coincidentally higher counter: uptime dropping is the
	// only signal, and it must clear the fold state (first-sight again).
	m.set(obs.MProcessUptime, 2.0)
	m.set(shedKey, 500.0)
	f.Scrape(ctx)
	if got := f.Aggregates()["shed"]; got != 20 {
		t.Fatalf("shed after uptime-drop restart = %v, want 20 (restart history must not count)", got)
	}
	m.set(shedKey, 510.0)
	f.Scrape(ctx)
	if got := f.Aggregates()["shed"]; got != 30 {
		t.Fatalf("shed after post-restart increase = %v, want 30", got)
	}
}

// fakeLBone serves a controllable /members list the way lboned does.
type fakeLBone struct {
	srv *httptest.Server
	mu  sync.Mutex
	rec []lbone.DepotRecord
}

func newFakeLBone(t *testing.T) *fakeLBone {
	t.Helper()
	lb := &fakeLBone{}
	mux := http.NewServeMux()
	mux.HandleFunc("/members", func(w http.ResponseWriter, _ *http.Request) {
		lb.mu.Lock()
		recs := append([]lbone.DepotRecord(nil), lb.rec...)
		lb.mu.Unlock()
		_ = json.NewEncoder(w).Encode(recs)
	})
	lb.srv = httptest.NewServer(mux)
	t.Cleanup(lb.srv.Close)
	return lb
}

func (lb *fakeLBone) setRecords(recs ...lbone.DepotRecord) {
	lb.mu.Lock()
	lb.rec = recs
	lb.mu.Unlock()
}

func TestDiscoveryChurnMarksDownThenPrunes(t *testing.T) {
	member := newFakeMember(t)
	lb := newFakeLBone(t)
	lb.setRecords(lbone.DepotRecord{
		Addr: "d1:6714", Kind: lbone.KindDepot, MetricsAddr: member.addr(),
	})

	clock := newFakeClock()
	var transMu sync.Mutex
	var transitions []string
	f := New(Config{
		LBone:      &lbone.Client{BaseURL: lb.srv.URL},
		PruneAfter: time.Minute,
		Clock:      clock.Now,
		OnMemberState: func(m Member, from string) {
			transMu.Lock()
			transitions = append(transitions, from+">"+m.State)
			transMu.Unlock()
		},
	})
	ctx := context.Background()

	f.Scrape(ctx)
	m, ok := memberByAddr(f, member.addr())
	if !ok || m.State != StateUp || m.Kind != lbone.KindDepot || m.ServiceAddr != "d1:6714" {
		t.Fatalf("discovered member = %+v (ok=%v)", m, ok)
	}

	// The node leaves the registry and dies: marked down with the churn
	// spelled out, but retained for the prune window.
	lb.setRecords()
	member.srv.Close()
	clock.Advance(30 * time.Second)
	f.Scrape(ctx)
	m, ok = memberByAddr(f, member.addr())
	if !ok {
		t.Fatal("member pruned before PruneAfter elapsed")
	}
	if m.State != StateDown || !strings.HasPrefix(m.Err, "left registry: ") {
		t.Fatalf("churned member = %+v, want down with left-registry err", m)
	}

	clock.Advance(time.Minute + time.Second)
	f.Scrape(ctx)
	if _, ok := memberByAddr(f, member.addr()); ok {
		t.Fatal("member still in matrix after PruneAfter")
	}

	transMu.Lock()
	defer transMu.Unlock()
	want := []string{"down>up", "up>down"}
	if len(transitions) != len(want) || transitions[0] != want[0] || transitions[1] != want[1] {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestUnreachableLBoneKeepsMatrix(t *testing.T) {
	member := newFakeMember(t)
	lb := newFakeLBone(t)
	lb.setRecords(lbone.DepotRecord{Addr: "d1:6714", Kind: lbone.KindDepot, MetricsAddr: member.addr()})

	reg := obs.NewRegistry()
	f := New(Config{LBone: &lbone.Client{BaseURL: lb.srv.URL}, Registry: reg})
	ctx := context.Background()
	f.Scrape(ctx)
	lb.srv.Close()
	f.Scrape(ctx)

	if m, ok := memberByAddr(f, member.addr()); !ok || m.State != StateUp {
		t.Fatalf("member after directory outage = %+v (ok=%v), want still up", m, ok)
	}
	errKey := obs.Label(obs.MFleetScrapeErrors, "node", "lbone")
	if v, _ := reg.Snapshot()[errKey].(float64); v == 0 {
		t.Fatal("directory outage not counted")
	}
}

func TestTenMemberScrapeFitsOnePollInterval(t *testing.T) {
	const members = 10
	const delay = 300 * time.Millisecond
	peers := make([]string, 0, members)
	for i := 0; i < members; i++ {
		m := newFakeMember(t)
		m.mu.Lock()
		m.delay = delay
		m.mu.Unlock()
		peers = append(peers, m.addr())
	}
	f := New(Config{Peers: peers, Interval: 5 * time.Second, PeerTimeout: 2 * time.Second})
	start := time.Now()
	f.Scrape(context.Background())
	elapsed := time.Since(start)
	// Serial would be ≥ 10×300ms across two documents each; the parallel
	// fan-out must complete well inside the poll interval.
	if elapsed > f.Interval() {
		t.Fatalf("10-member scrape took %v, poll interval is %v", elapsed, f.Interval())
	}
	for _, p := range peers {
		if m, _ := memberByAddr(f, p); m.State != StateUp {
			t.Fatalf("member %s = %+v, want up", p, m)
		}
	}
}

// TestCoverageRuleFiresThroughTheStackEngine: the fleet publishes on the
// registry of a slo.Start stack whose one engine runs the fleet rules, as
// lfsteward -fleet-scrape wires it. A depot dying drops replica coverage
// below the floor; the stack's /healthz, /debug/alerts and flight recorder
// all see the fleet alert.
func TestCoverageRuleFiresThroughTheStackEngine(t *testing.T) {
	depot := newFakeMember(t)
	lb := newFakeLBone(t)
	lb.setRecords(lbone.DepotRecord{Addr: "d1:6714", Kind: lbone.KindDepot, MetricsAddr: depot.addr()})

	clock := newFakeClock()
	reg := obs.NewRegistry()
	stack, err := slo.Start(slo.Options{
		Addr:              "127.0.0.1:0",
		Registry:          reg,
		Tracer:            obs.NewTracer(64),
		Logger:            obs.NewLogger(io.Discard, 64),
		Rules:             slo.FleetDefaultRules(2),
		SampleInterval:    time.Hour,
		CaptureCPUProfile: 10 * time.Millisecond,
		Clock:             clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stack.Close(context.Background()) })
	f := New(Config{
		LBone:    &lbone.Client{BaseURL: lb.srv.URL},
		Registry: reg,
		Clock:    clock.Now,
		Coverage: func(up map[string]bool) map[string]float64 {
			// Coverage follows live depot membership: full when d1 is up,
			// a lone replica when it is not.
			if up["d1:6714"] {
				return map[string]float64{"vs-0": 2, "vs-1": 2}
			}
			return map[string]float64{"vs-0": 1, "vs-1": 2}
		},
	})
	ctx := context.Background()
	base := "http://" + stack.Addr()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	tick := func() {
		f.Scrape(ctx)
		stack.TSDB.Sample()
		clock.Advance(time.Second)
	}

	tick()
	if got := f.Aggregates()["replica.coverage.min"]; got != 2 {
		t.Fatalf("coverage.min with depot up = %v, want 2", got)
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz on a covered fleet = %d %s", code, body)
	}

	depot.srv.Close()
	tick()
	if got := f.Aggregates()["replica.coverage.min"]; got != 1 {
		t.Fatalf("coverage.min with depot down = %v, want 1", got)
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "fleet-replica-coverage") {
		t.Fatalf("/healthz while coverage is below the floor = %d %s, want 503 naming fleet-replica-coverage", code, body)
	}
	_, body := get("/debug/alerts")
	var alerts struct {
		Alerts []slo.Alert `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(body), &alerts); err != nil {
		t.Fatalf("/debug/alerts: %v\n%s", err, body)
	}
	var firing *slo.Alert
	for i, a := range alerts.Alerts {
		if a.Rule == "fleet-replica-coverage" && a.State == slo.StateFiring {
			firing = &alerts.Alerts[i]
		}
	}
	if firing == nil || firing.Scope != slo.ScopeFleet || firing.Severity != slo.SeverityCritical {
		t.Fatalf("/debug/alerts has no critical fleet-scope coverage alert firing:\n%s", body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var triggers []string
		for _, b := range stack.Recorder.Bundles() {
			triggers = append(triggers, b.Trigger)
		}
		if strings.Contains(strings.Join(triggers, " "), "alert:fleet-replica-coverage") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no capture triggered alert:fleet-replica-coverage (bundles: %v)", triggers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEdgeDemandAggregatesIntoHotItems(t *testing.T) {
	e1 := newFakeMember(t)
	e1.set("edge.hot.vs-a", 5.0)
	e1.set("edge.hot.vs-b", 2.0)
	e2 := newFakeMember(t)
	e2.set("edge.hot.vs-a", 4.0)
	e2.set("edge.hot.vs-c", 3.0)

	f := New(Config{Peers: []string{e1.addr(), e2.addr()}})
	f.Scrape(context.Background())

	items := f.HotItems(2)
	if len(items) != 2 {
		t.Fatalf("hot items = %+v", items)
	}
	if items[0].Hint != "vs-a" || items[0].Count != 9 {
		t.Fatalf("hottest = %+v, want vs-a summed across edges (9)", items[0])
	}
	if items[1].Hint != "vs-c" || items[1].Count != 3 {
		t.Fatalf("second = %+v, want vs-c (3)", items[1])
	}
}

func TestHandlerServesMatrixJSON(t *testing.T) {
	up := newFakeMember(t)
	up.set(obs.MProcessUptime, 60.0)
	f := New(Config{Self: "self:9000", Peers: []string{up.addr()}})
	f.Scrape(context.Background())

	// JSON: the health matrix plus aggregates and alert state.
	rr := httptest.NewRecorder()
	f.Handler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/fleet", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var doc struct {
		Self    string `json:"self"`
		Members []struct {
			Addr  string `json:"addr"`
			State string `json:"state"`
		} `json:"members"`
		Aggregates map[string]float64 `json:"aggregates"`
		Alerts     []slo.Alert        `json:"alerts"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decoding /debug/fleet: %v", err)
	}
	if doc.Self != "self:9000" {
		t.Fatalf("self = %q", doc.Self)
	}
	if len(doc.Members) != 1 || doc.Members[0].State != StateUp {
		t.Fatalf("members = %+v", doc.Members)
	}
}
