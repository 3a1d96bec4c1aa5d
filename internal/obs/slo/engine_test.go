package slo

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lonviz/internal/obs"
)

// fakeClock is a manually advanced clock shared by TSDB and engine.
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

// latencyHarness wires one latency-quantile rule over one histogram with a
// shared fake clock, driven one tick at a time.
type latencyHarness struct {
	t     *testing.T
	clock *fakeClock
	reg   *obs.Registry
	db    *obs.TSDB
	eng   *Engine
	hist  *obs.Histogram

	mu          sync.Mutex
	transitions []Alert
}

func newLatencyHarness(t *testing.T, rule Rule) *latencyHarness {
	t.Helper()
	if err := rule.Validate(); err != nil {
		t.Fatalf("rule: %v", err)
	}
	h := &latencyHarness{t: t, clock: newFakeClock(), reg: obs.NewRegistry()}
	h.db = obs.NewTSDB(obs.TSDBConfig{
		Registry: h.reg,
		Tiers:    []obs.Tier{{Step: time.Second, Slots: 300}},
		Clock:    h.clock.Now,
	})
	h.eng = NewEngine(EngineConfig{
		DB:       h.db,
		Rules:    []Rule{rule},
		Registry: h.reg,
		Clock:    h.clock.Now,
	})
	h.eng.Subscribe(func(a Alert) {
		h.mu.Lock()
		h.transitions = append(h.transitions, a)
		h.mu.Unlock()
	})
	h.hist = h.reg.Histogram("test.ms", 1, 10, 100, 1000)
	return h
}

// tick observes n samples of value ms, samples the TSDB, evaluates, and
// advances the clock one second.
func (h *latencyHarness) tick(ms float64, n int) {
	for i := 0; i < n; i++ {
		h.hist.Observe(ms)
	}
	h.db.Sample()
	h.eng.Evaluate()
	h.clock.Advance(time.Second)
}

func (h *latencyHarness) states() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.transitions))
	for i, a := range h.transitions {
		out[i] = a.State
	}
	return out
}

func testLatencyRule() Rule {
	return Rule{
		Name:        "test-latency",
		Severity:    SeverityCritical,
		Kind:        KindLatencyQuantile,
		Metric:      "test.ms",
		Quantile:    0.5,
		ThresholdMs: 100,
		// Window covers exactly the last tick's observations; For and
		// ClearAfter provide the hysteresis under test.
		Window:     Duration(1500 * time.Millisecond),
		For:        Duration(2 * time.Second),
		ClearAfter: Duration(4 * time.Second),
		MinCount:   1,
	}
}

// TestShedRateRuleReadsWhatTheDepotServed: ibp-shed-rate divides a
// depot's sheds by the requests its server loop served, so a depot
// shedding half its load fires it. The depot records no client-side
// ibp.op.ms of its own, which the rule once divided by.
func TestShedRateRuleReadsWhatTheDepotServed(t *testing.T) {
	var rule Rule
	for _, r := range DefaultRules() {
		if r.Name == "ibp-shed-rate" {
			rule = r
		}
	}
	h := newLatencyHarness(t, rule)
	served := h.reg.Histogram(obs.Label(obs.MIBPServerOpMs, "op", "LOAD"), obs.LatencyBucketsMs...)
	shed := h.reg.Counter(obs.Label(obs.MIBPShed, "reason", "queue_full"))
	for i := 0; i < 30; i++ {
		for j := 0; j < 10; j++ {
			served.Observe(1)
		}
		shed.Add(10)
		h.tick(0, 0)
	}
	if got := h.states(); len(got) != 1 || got[0] != StateFiring {
		t.Fatalf("transitions = %v, want the rule firing on a depot shedding half its load", got)
	}
}

func TestEngineFiresAfterForAndResolvesAfterClearAfter(t *testing.T) {
	h := newLatencyHarness(t, testLatencyRule())

	h.tick(500, 20) // breach -> pending
	h.tick(500, 20) // 1s held < For
	if got := h.states(); len(got) != 0 {
		t.Fatalf("fired before For elapsed: %v", got)
	}
	h.tick(500, 20) // 2s held -> firing
	if got := h.states(); len(got) != 1 || got[0] != StateFiring {
		t.Fatalf("transitions after For = %v, want [firing]", got)
	}
	if err := h.eng.HealthError(); err == nil || !strings.Contains(err.Error(), "test-latency") {
		t.Fatalf("HealthError while firing = %v, want to name test-latency", err)
	}

	// Clean run with the ClearAfter hold: no resolve until it has been
	// continuously clean that long.
	h.tick(5, 20)
	h.tick(5, 20)
	h.tick(5, 20)
	h.tick(5, 20)
	if got := h.states(); len(got) != 1 {
		t.Fatalf("resolved before ClearAfter elapsed: %v", got)
	}
	h.tick(5, 20) // 4s of continuous clean -> resolved
	if got := h.states(); len(got) != 2 || got[1] != StateResolved {
		t.Fatalf("transitions = %v, want [firing resolved]", got)
	}
	if err := h.eng.HealthError(); err != nil {
		t.Fatalf("HealthError after resolve = %v, want nil", err)
	}
}

// TestEngineNoFlap pins the damping in both directions: a single bad
// sample never fires a healthy rule, and a single good sample never
// resolves a firing one.
func TestEngineNoFlap(t *testing.T) {
	h := newLatencyHarness(t, testLatencyRule())

	// One bad tick among good ones: pending is entered and cancelled, no
	// firing transition reaches subscribers.
	h.tick(5, 20)
	h.tick(500, 20)
	h.tick(5, 20)
	h.tick(5, 20)
	if got := h.states(); len(got) != 0 {
		t.Fatalf("one bad sample produced transitions %v, want none", got)
	}

	// Now drive to firing, then break the clean run with one bad tick: the
	// ClearAfter countdown must restart, not resolve.
	h.tick(500, 20)
	h.tick(500, 20)
	h.tick(500, 20)
	if got := h.states(); len(got) != 1 || got[0] != StateFiring {
		t.Fatalf("setup transitions = %v, want [firing]", got)
	}
	h.tick(5, 20)   // clean run starts
	h.tick(500, 20) // one bad sample breaks it
	h.tick(5, 20)   // clean restarts
	h.tick(5, 20)
	h.tick(5, 20)
	if got := h.states(); len(got) != 1 {
		t.Fatalf("resolved across a broken clean run: %v", got)
	}
	h.tick(5, 20)
	h.tick(5, 20) // 4s continuous clean since the restart -> resolved
	if got := h.states(); len(got) != 2 || got[1] != StateResolved {
		t.Fatalf("transitions = %v, want [firing resolved]", got)
	}
}

// TestEngineVanishedInstanceResolves proves an alert on a labeled series
// that stops being sampled (depot no longer contacted) still resolves.
func TestEngineVanishedInstanceResolves(t *testing.T) {
	rule := testLatencyRule()
	h := newLatencyHarness(t, rule)
	h.tick(500, 20)
	h.tick(500, 20)
	h.tick(500, 20)
	if got := h.states(); len(got) != 1 || got[0] != StateFiring {
		t.Fatalf("setup transitions = %v, want [firing]", got)
	}
	// Stop observing entirely: the window drains below MinCount, verdicts
	// turn invalid, and invalid counts as clean for the ClearAfter run.
	for i := 0; i < 6; i++ {
		h.db.Sample()
		h.eng.Evaluate()
		h.clock.Advance(time.Second)
	}
	if got := h.states(); len(got) != 2 || got[1] != StateResolved {
		t.Fatalf("transitions = %v, want [firing resolved] after traffic stopped", got)
	}
}

func TestEngineBurnRateNeedsBothWindows(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	db := obs.NewTSDB(obs.TSDBConfig{
		Registry: reg,
		Tiers:    []obs.Tier{{Step: time.Second, Slots: 300}},
		Clock:    clock.Now,
	})
	rule := Rule{
		Name:        "test-burn",
		Kind:        KindBurnRate,
		ErrorMetric: "test.errors",
		TotalMetric: "test.total",
		Objective:   0.9, // 10% error budget
		FastWindow:  Duration(3 * time.Second),
		SlowWindow:  Duration(60 * time.Second),
		FastBurn:    2,
		SlowBurn:    1,
		For:         0, // fire immediately on breach; windows are the damping
		ClearAfter:  Duration(2 * time.Second),
		MinCount:    1,
	}
	if err := rule.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineConfig{DB: db, Rules: []Rule{rule}, Registry: reg, Clock: clock.Now})
	var fired []Alert
	eng.Subscribe(func(a Alert) {
		if a.State == StateFiring {
			fired = append(fired, a)
		}
	})
	errs := reg.Counter("test.errors")
	total := reg.Counter("test.total")

	// A long healthy history: 60 ticks of pure success.
	for i := 0; i < 60; i++ {
		total.Add(10)
		db.Sample()
		eng.Evaluate()
		clock.Advance(time.Second)
	}
	// A 2-tick error spike: the fast window burns hot, but the slow window
	// is still diluted by the healthy hour — no alert.
	for i := 0; i < 2; i++ {
		total.Add(10)
		errs.Add(5)
		db.Sample()
		eng.Evaluate()
		clock.Advance(time.Second)
	}
	if len(fired) != 0 {
		t.Fatalf("fast-only spike fired %d alerts (%+v), want 0 — slow window must gate", len(fired), fired)
	}
	// Sustained errors long enough to push the slow window past 1x budget
	// burn too: now it fires.
	for i := 0; i < 30 && len(fired) == 0; i++ {
		total.Add(10)
		errs.Add(5)
		db.Sample()
		eng.Evaluate()
		clock.Advance(time.Second)
	}
	if len(fired) == 0 {
		t.Fatal("sustained burn never fired")
	}
	if fired[0].Rule != "test-burn" {
		t.Errorf("fired rule = %q", fired[0].Rule)
	}
}

func TestEngineHandlerJSON(t *testing.T) {
	h := newLatencyHarness(t, testLatencyRule())
	srv := httptest.NewServer(h.eng.Handler())
	defer srv.Close()

	// Empty engine: alerts must be [] (not null) so jq-style consumers and
	// the check.sh smoke never trip over null.
	body := func() string {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}
	var doc struct {
		Firing int     `json:"firing"`
		Alerts []Alert `json:"alerts"`
	}
	raw := body()
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("alerts JSON: %v\n%s", err, raw)
	}
	if doc.Alerts == nil {
		t.Fatalf("empty alerts serialized as null: %s", raw)
	}

	h.tick(500, 20)
	h.tick(500, 20)
	h.tick(500, 20)
	raw = body()
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Firing != 1 || len(doc.Alerts) != 1 || doc.Alerts[0].State != StateFiring {
		t.Fatalf("alerts doc = %+v, want one firing", doc)
	}
	if doc.Alerts[0].Rule != "test-latency" {
		t.Errorf("alert rule = %q", doc.Alerts[0].Rule)
	}
}

func TestParseRules(t *testing.T) {
	// Wrapped object form, duration as string and as seconds-number.
	rules, err := ParseRules([]byte(`{"rules": [{
		"name": "lat", "kind": "latency_quantile", "metric": "x.ms",
		"quantile": 0.99, "threshold_ms": 250, "window": "30s", "for": 10
	}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Window.D() != 30*time.Second || rules[0].For.D() != 10*time.Second {
		t.Fatalf("parsed %+v", rules)
	}
	if rules[0].Severity != SeverityWarn {
		t.Errorf("default severity = %q, want warn", rules[0].Severity)
	}
	if rules[0].MinCount != 1 {
		t.Errorf("default min_count = %d, want 1", rules[0].MinCount)
	}

	// Bare array form.
	if _, err := ParseRules([]byte(`[{"name": "e", "kind": "error_rate",
		"error_metric": "x.err", "total_metric": "x.tot", "max_ratio": 0.5, "window": "1m"}]`)); err != nil {
		t.Fatalf("bare array: %v", err)
	}

	// Duplicate names rejected.
	if _, err := ParseRules([]byte(`[
		{"name": "d", "kind": "error_rate", "error_metric": "a", "total_metric": "b", "max_ratio": 0.5, "window": "1m"},
		{"name": "d", "kind": "error_rate", "error_metric": "a", "total_metric": "b", "max_ratio": 0.5, "window": "1m"}]`)); err == nil {
		t.Error("duplicate rule names accepted")
	}

	// Kind-specific validation.
	if _, err := ParseRules([]byte(`[{"name": "bad", "kind": "latency_quantile", "metric": "x"}]`)); err == nil {
		t.Error("latency rule without quantile/threshold accepted")
	}
	if _, err := ParseRules([]byte(`[{"name": "bad", "kind": "nope"}]`)); err == nil {
		t.Error("unknown kind accepted")
	}

	// The shipped defaults must validate.
	for _, r := range DefaultRules() {
		r := r
		if err := r.Validate(); err != nil {
			t.Errorf("default rule %s: %v", r.Name, err)
		}
	}
}

// TestStackLifecycle exercises the full slo.Start path: readiness
// transitions, mounted endpoints, and shutdown.
func TestStackLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	stack, err := Start(Options{
		Addr:           "127.0.0.1:0",
		Registry:       reg,
		SampleInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close(context.Background())
	if !stack.Enabled() {
		t.Fatal("stack not enabled")
	}
	base := "http://" + stack.Addr()

	status := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	stack.SetStatus("warming up")
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before MarkReady = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz with no firing alerts = %d, want 200", got)
	}
	stack.MarkReady()
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after MarkReady = %d, want 200", got)
	}
	if got := status("/debug/alerts"); got != http.StatusOK {
		t.Errorf("/debug/alerts = %d", got)
	}
	if got := status("/debug/tsdb"); got != http.StatusOK {
		t.Errorf("/debug/tsdb = %d", got)
	}

	// The sampler must produce history on its own: poke a counter and wait
	// for at least two samples to land.
	reg.Counter("stack.test").Add(1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		pts := stack.TSDB.Points("stack.test", time.Now().Add(-time.Minute))
		if len(pts) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sampler produced %d points in 5s, want >=2", len(pts))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := stack.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestOffPathInert pins the -metrics-addr-off contract: Start with no
// address must spawn no goroutines, and every method on the inert stack
// and nil engine must be an allocation-free no-op.
func TestOffPathInert(t *testing.T) {
	before := countGoroutines()
	stack, err := Start(Options{Addr: ""})
	if err != nil {
		t.Fatal(err)
	}
	if stack.Enabled() {
		t.Fatal("empty-addr stack claims enabled")
	}
	if after := countGoroutines(); after > before {
		t.Errorf("inert Start spawned goroutines: %d -> %d", before, after)
	}
	if stack.ReplicaBias(time.Minute) != nil {
		t.Error("inert stack ReplicaBias should be nil")
	}
	var eng *Engine
	if n := testing.AllocsPerRun(100, func() {
		eng.Evaluate()
		stack.SetStatus("x")
		stack.MarkReady()
		stack.Subscribe(nil)
		if eng.HealthError() != nil {
			t.Fatal("nil engine unhealthy")
		}
	}); n != 0 {
		t.Errorf("off path allocates %v per run, want 0", n)
	}
	if err := stack.Close(context.Background()); err != nil {
		t.Errorf("inert close: %v", err)
	}
}

func countGoroutines() int {
	// Settle briefly so finished goroutines from earlier tests retire.
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}
