package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/obs/fleet"
	"lonviz/internal/obs/slo"
)

// stackFixture is the real observability stack every daemon serves
// (slo.Start on a loopback port) over a registry the test fills by hand.
// The TSDB is sampled only when the test says so.
type stackFixture struct {
	reg   *obs.Registry
	tr    *obs.Tracer
	stack *slo.Stack
	addr  string
}

func startStack(t *testing.T) *stackFixture {
	t.Helper()
	// One warn rule that fires on the first sample: setScalars puts the
	// depot queue gauge above its ceiling.
	rules := filepath.Join(t.TempDir(), "rules.json")
	doc := `{"rules":[{"name":"queue-high","kind":"gauge_threshold","metric":"ibp.server.queue_depth","max_value":1}]}`
	if err := os.WriteFile(rules, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	stack, err := slo.Start(slo.Options{
		Addr:              "127.0.0.1:0",
		Registry:          reg,
		Tracer:            tr,
		RulesPath:         rules,
		SampleInterval:    time.Hour,
		Logger:            obs.NewLogger(io.Discard, 16),
		CaptureCPUProfile: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stack.Close(context.Background()) })
	return &stackFixture{reg: reg, tr: tr, stack: stack, addr: stack.Addr()}
}

// setScalars records every counter, gauge and snapshot key the target
// pane reads, once.
func (f *stackFixture) setScalars() {
	reg := f.reg
	reg.Counter(obs.Label(obs.MIBPOpErrors, "op", "LOAD")).Add(2)
	reg.Counter(obs.Label(obs.MIBPOpErrors, "op", "STORE")) // zero: not listed
	reg.Counter(obs.Label(obs.MIBPShed, "reason", "queue_full")).Add(3)
	reg.Counter(obs.Label(obs.MDVSShed, "reason", "deadline")).Add(1)
	reg.Counter(obs.Label(obs.MAgentRenderShed, "reason", "evicted")).Add(2)
	reg.Gauge(obs.MIBPInflight).Set(2)
	reg.Gauge(obs.MDVSInflight).Set(1)
	reg.Gauge(obs.MIBPQueueDepth).Set(4)
	reg.Gauge(obs.MDVSQueueDepth).Set(1)
	reg.Gauge(obs.MAgentRenderQueueDepth).Set(2)
	reg.Counter(obs.MLorsBusyRejections).Add(7)
	reg.Counter(obs.MLorsRetryBudgetExhausted).Add(8)
	reg.Counter(obs.MLorsFailedAttempts).Add(9)
	reg.Counter(obs.MLorsRetryPasses).Add(10)
	reg.Gauge(obs.MLorsCircuitOpen).Set(1)
	reg.Counter(obs.MLorsCircuitTrips).Add(11)
	reg.RegisterSnapshot("agent", func() map[string]float64 {
		return map[string]float64{"cache.hit_rate": 0.75, "coalesced": 5}
	})
	reg.RegisterSnapshot("edge", func() map[string]float64 {
		return map[string]float64{
			"cache.capacity": 1 << 20, "cache.used": 1 << 19, "cache.entries": 3,
			"cache.evictions": 1, "cache.hit_rate": 0.5,
			"hits": 6, "misses": 6, "fills": 5, "fill_errors": 1,
			"hot.r00c01": 4, "hot.r00c02": 9,
		}
	})
}

// observe records one round of histogram traffic, each family inside a
// single bucket so every windowed quantile of it is the same number.
func (f *stackFixture) observe() {
	reg := f.reg
	for i := 0; i < 10; i++ {
		reg.Histogram(obs.Label(obs.MIBPDepotMs, "depot", "d1:6714")).ObserveTrace(3, 0xabc)
	}
	for i := 0; i < 4; i++ {
		reg.Histogram(obs.Label(obs.MIBPDepotMs, "depot", "d2:6714")).Observe(0.3)
	}
	for i := 0; i < 3; i++ {
		reg.Histogram(obs.Label(obs.MAgentFetchMs, "class", "hit")).Observe(1)
	}
	reg.Histogram(obs.Label(obs.MAgentFetchMs, "class", "wan")).Observe(40)
}

// bucketQuantile is the q-quantile of n samples that all fell in the
// bucket (lo, hi], interpolated the way the histograms do.
func bucketQuantile(lo, hi, q float64, n int) float64 {
	return lo + (hi-lo)*((q*float64(n))/float64(n))
}

// traces records three root spans of distinct durations, the slowest with
// two children.
func (f *stackFixture) traces() {
	ctx, root := f.tr.StartSpan(context.Background(), obs.SpanGetViewSet)
	for _, name := range []string{obs.SpanResolve, obs.SpanDownload} {
		_, child := f.tr.StartSpan(ctx, name)
		child.Finish()
	}
	time.Sleep(6 * time.Millisecond)
	root.Finish()
	_, mid := f.tr.StartSpan(context.Background(), obs.SpanRenderServe)
	time.Sleep(3 * time.Millisecond)
	mid.Finish()
	_, fast := f.tr.StartSpan(context.Background(), obs.SpanStewardCycle)
	fast.Finish()
}

// sampleTwice takes two TSDB samples a few milliseconds apart with a
// round of histogram traffic before each.
func (f *stackFixture) sampleTwice() {
	f.observe()
	f.stack.TSDB.Sample()
	time.Sleep(5 * time.Millisecond)
	f.observe()
	runtime.GC()
	f.stack.TSDB.Sample()
}

// assertFields compares two -json documents key by key, so a mismatch
// names the field that moved.
func assertFields(t *testing.T, got, want any) {
	t.Helper()
	g, w := jsonFields(t, got), jsonFields(t, want)
	keys := make(map[string]bool)
	for k := range g {
		keys[k] = true
	}
	for k := range w {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if string(g[k]) != string(w[k]) {
			t.Errorf("field %q:\n got  %s\n want %s", k, g[k], w[k])
		}
	}
}

func jsonFields(t *testing.T, v any) map[string]json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// wantTraces is the slow-trace pane computed straight from the tracer's
// export: root spans (no parent, or a remote one), slowest first.
func wantTraces(tr *obs.Tracer, n int) []traceLine {
	spans := tr.Export(0)
	per := make(map[uint64]int)
	for _, s := range spans {
		per[s.TraceID]++
	}
	var out []traceLine
	for _, s := range spans {
		if s.ParentID == 0 || s.Remote {
			out = append(out, traceLine{
				TraceID: fmt.Sprintf("%016x", s.TraceID), Name: s.Name, Ms: s.DurMs, Spans: per[s.TraceID],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ms > out[j].Ms })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func wantAlerts(as []slo.Alert) []alertLine {
	var out []alertLine
	for _, a := range as {
		out = append(out, alertLine{
			Rule: a.Rule, Severity: a.Severity, Instance: a.Instance, State: a.State,
			Since: a.Since.UTC().Format(time.RFC3339), Value: a.Value, Threshold: a.Threshold,
		})
	}
	return out
}

func TestPollOneSummarizesTheStack(t *testing.T) {
	f := startStack(t)
	f.setScalars()
	f.sampleTwice()
	b, err := f.stack.Recorder.Capture("manual", "lftop test")
	if err != nil {
		t.Fatal(err)
	}
	f.traces()

	d1 := f.reg.Histogram(obs.Label(obs.MIBPDepotMs, "depot", "d1:6714")).Snapshot()
	d2 := f.reg.Histogram(obs.Label(obs.MIBPDepotMs, "depot", "d2:6714")).Snapshot()
	gc := f.reg.Histogram(obs.MRuntimeGCPauseMs).Snapshot()
	sched := f.reg.Histogram(obs.MRuntimeSchedLatencyMs).Snapshot()
	bytes := 0
	for _, data := range b.Files {
		bytes += len(data)
	}
	p99d1 := bucketQuantile(2.5, 5, 0.99, 10)
	p99d2 := bucketQuantile(0.25, 0.5, 0.99, 4)
	want := targetSummary{
		Endpoint: f.addr,
		Depots: []depotStat{
			{Depot: "d1:6714", Count: d1.Count, P50: d1.P50, P95: d1.P95, P99: d1.P99, Exemplar: "0000000000000abc"},
			{Depot: "d2:6714", Count: d2.Count, P50: d2.P50, P95: d2.P95, P99: d2.P99},
		},
		OpErrors:       map[string]float64{"LOAD": 2},
		FailedAttempts: 9,
		RetryPasses:    10,
		CircuitOpen:    1,
		CircuitTrips:   11,
		CacheHitRate:   0.75,
		Frames:         8,
		FrameMeanMs:    (2 * (3*1 + 40)) / 8.0,
		Load: loadStat{
			InFlight: 3, QueueDepth: 7, Shed: 6, Coalesced: 5,
			CoalesceHitRate: 5.0 / 13, BusyRejections: 7, RetryBudgetExhausted: 8,
		},
		Runtime: &runtimeStat{
			HeapLiveMB:    float64(f.reg.Gauge(obs.MRuntimeHeapLiveBytes).Value()) / (1 << 20),
			HeapGoalMB:    float64(f.reg.Gauge(obs.MRuntimeHeapGoalBytes).Value()) / (1 << 20),
			Goroutines:    float64(f.reg.Gauge(obs.MRuntimeGoroutines).Value()),
			GCPauses:      gc.Count,
			GCPauseP99Ms:  gc.P99,
			SchedLatP99Ms: sched.P99,
			MutexWaitMs:   float64(f.reg.Counter(obs.MRuntimeMutexWaitMs).Value()),
			GCCycles:      float64(f.reg.Counter(obs.MRuntimeGCCycles).Value()),
		},
		Captures: []captureLine{{
			ID: b.ID, Time: b.Time.UTC().Format(time.RFC3339), Trigger: "manual",
			Files: len(b.Files), Bytes: bytes,
		}},
		Edge: &edgeStat{
			CapacityBytes: 1 << 20, UsedBytes: 1 << 19, Entries: 3, Evictions: 1, HitRate: 0.5,
			Hits: 6, Misses: 6, Fills: 5, FillErrors: 1,
			HotSet: []hotSetLine{{ViewSet: "r00c02", Count: 9}, {ViewSet: "r00c01", Count: 4}},
		},
		SlowTraces:   wantTraces(f.tr, 2),
		AlertsFiring: 1,
		Alerts:       wantAlerts(f.stack.Engine.Alerts()),
		History: []historyLine{
			{Series: obs.Label(obs.MIBPDepotMs, "depot", "d1:6714"), Points: 2, LastMs: p99d1, MaxMs: p99d1, Spark: "▁▁"},
			{Series: obs.Label(obs.MIBPDepotMs, "depot", "d2:6714"), Points: 2, LastMs: p99d2, MaxMs: p99d2, Spark: "▁▁"},
		},
	}
	if want.Runtime.Goroutines <= 0 || want.Runtime.GCCycles <= 0 {
		t.Fatalf("runtime families not harvested: %+v", *want.Runtime)
	}
	if len(want.Alerts) != 1 || want.Alerts[0].State != slo.StateFiring {
		t.Fatalf("fixture alert not firing: %+v", want.Alerts)
	}

	top := newTop([]string{f.addr}, 2, true, 5*time.Minute)
	got := top.pollOne(f.addr)
	assertFields(t, got, want)
	assertFields(t, *got.Runtime, *want.Runtime)
	assertFields(t, *got.Edge, *want.Edge)
	assertFields(t, got.Load, want.Load)

	// A second poll turns the frame and shed counts into rates.
	f.observe()
	f.reg.Counter(obs.Label(obs.MIBPShed, "reason", "queue_full")).Add(4)
	time.Sleep(10 * time.Millisecond)
	again := top.pollOne(f.addr)
	if again.Frames != 12 || again.FramesPerSecond <= 0 {
		t.Errorf("second poll: frames=%d rate=%v, want 12 and a positive rate", again.Frames, again.FramesPerSecond)
	}
	if again.Load.Shed != 10 || again.Load.ShedPerSecond <= 0 {
		t.Errorf("second poll: shed=%v rate=%v, want 10 and a positive rate", again.Load.Shed, again.Load.ShedPerSecond)
	}
}

func TestPollOneReportsAnUnreachableTarget(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	dead := srv.Listener.Addr().String()
	srv.Close()
	got := newTop([]string{dead}, 5, false, time.Minute).pollOne(dead)
	if got.Err == "" {
		t.Fatalf("closed target polled without an error: %+v", got)
	}
	assertFields(t, got, targetSummary{Endpoint: dead, Err: got.Err})
}

func TestWaitReadyNamesTheStartupPhase(t *testing.T) {
	f := startStack(t)
	f.stack.SetStatus("adopting exNodes")
	top := newTop([]string{f.addr}, 5, false, time.Minute)
	err := top.waitReady(300 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), f.addr+" (adopting exNodes)") {
		t.Fatalf("waitReady before MarkReady = %v, want a timeout naming the phase", err)
	}
	f.stack.MarkReady()
	if err := top.waitReady(time.Second); err != nil {
		t.Fatalf("waitReady after MarkReady: %v", err)
	}
}

func TestPollFleetSummarizesTheMatrix(t *testing.T) {
	member := startStack(t)
	member.setScalars()
	member.observe()

	// One fleet rule that fires on the first pass: the member's fetch p99
	// sits far above a 1 ms ceiling.
	rules, err := slo.ParseRules([]byte(`{"rules":[{"name":"node-p99","kind":"gauge_threshold","scope":"fleet","metric":"fleet.node.p99.ms","max_value":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	// The steward: its own stack, whose one engine evaluates that rule,
	// with the fleet publishing on the stack's registry.
	reg := obs.NewRegistry()
	stack, err := slo.Start(slo.Options{
		Addr:           "127.0.0.1:0",
		Registry:       reg,
		Tracer:         obs.NewTracer(16),
		Rules:          rules,
		SampleInterval: time.Hour,
		Logger:         obs.NewLogger(io.Discard, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stack.Close(context.Background()) })
	fl := fleet.New(fleet.Config{
		Self:     stack.Addr(),
		Peers:    []string{member.addr},
		Interval: time.Hour,
		Registry: reg,
		Tracer:   obs.NewTracer(16),
		Logger:   obs.NewLogger(io.Discard, 16),
	})
	stack.Server.Handle("/debug/fleet", fl.Handler(stack.Engine))
	steward := "http://" + stack.Addr()

	ctx := context.Background()
	fl.Scrape(ctx)
	stack.TSDB.Sample()
	time.Sleep(5 * time.Millisecond)
	member.observe() // same buckets: the p99 the matrix mirrors holds still
	fl.Scrape(ctx)
	stack.TSDB.Sample()

	var doc struct {
		Updated  time.Time `json:"updated"`
		ScrapeMs float64   `json:"scrape_ms"`
	}
	resp, err := http.Get(steward + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	p99 := bucketQuantile(25, 50, 0.99, 2)
	var members []fleetMemberLine
	for _, m := range fl.Members() {
		members = append(members, fleetMemberLine{
			Addr: m.Addr, Kind: m.Kind, State: m.State, UptimeS: m.UptimeS,
			P99Ms: m.P99Ms, AlertsFiring: m.AlertsFiring, Health: m.Health, Err: m.Err, Spark: "▁▁",
		})
	}
	want := fleetSummary{
		Endpoint:   steward,
		Self:       stack.Addr(),
		Updated:    doc.Updated.UTC().Format(time.RFC3339),
		ScrapeMs:   doc.ScrapeMs,
		Members:    members,
		Aggregates: fl.Aggregates(),
		FPSSpark:   "▁",
		Firing:     1,
		Alerts:     wantAlerts(stack.Engine.Alerts()),
	}
	if len(members) != 1 || members[0].State != fleet.StateUp || members[0].P99Ms != p99 || members[0].AlertsFiring != 0 {
		t.Fatalf("fixture member = %+v, want one up member with p99 %v and no alert", members, p99)
	}
	if len(want.Alerts) != 1 || want.Alerts[0].State != slo.StateFiring {
		t.Fatalf("fixture fleet alert not firing: %+v", want.Alerts)
	}

	got := newTop([]string{steward}, 5, false, 5*time.Minute).pollFleet(steward)
	assertFields(t, got, want)
	if len(got.Members) == 1 {
		assertFields(t, got.Members[0], want.Members[0])
	}
}
