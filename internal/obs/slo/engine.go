package slo

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lonviz/internal/obs"
)

// Alert states.
const (
	// StatePending: the rule is breached but has not held For yet.
	StatePending = "pending"
	// StateFiring: the breach held For; subscribers were notified.
	StateFiring = "firing"
	// StateResolved: a previously firing alert evaluated clean for
	// ClearAfter; retained for /debug/alerts history.
	StateResolved = "resolved"
)

// Alert is one rule instance's externally visible state, as served at
// /debug/alerts and delivered to subscribers on firing/resolved
// transitions.
type Alert struct {
	// Rule is the rule name.
	Rule string `json:"rule"`
	// Severity is the rule's severity ("warn" | "critical").
	Severity string `json:"severity"`
	// Scope is the rule's scope ("node" | "fleet") — subscribers use it
	// to tell a local breach from a cluster-wide one.
	Scope string `json:"scope,omitempty"`
	// Instance is the labeled metric name the alert tracks
	// ("ibp.depot.ms{depot=127.0.0.1:6714}"), empty for aggregate rules.
	Instance string `json:"instance,omitempty"`
	// Labels are the instance's parsed labels (e.g. depot=host:port) —
	// the steward keys targeted audits off Labels["depot"].
	Labels map[string]string `json:"labels,omitempty"`
	// State is pending | firing | resolved.
	State string `json:"state"`
	// Since is when the alert entered its current state.
	Since time.Time `json:"since"`
	// Value is the last evaluated value (quantile ms, ratio, or fast
	// burn multiple, by rule kind); Threshold is the rule's limit.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Reason is the human-readable breach (or recovery) description.
	Reason string `json:"reason"`
}

// EngineConfig configures NewEngine.
type EngineConfig struct {
	// DB is the history the rules evaluate against.
	DB *obs.TSDB
	// Rules to evaluate; empty means DefaultRules().
	Rules []Rule
	// Registry receives the slo.* engine metrics; nil means obs.Default().
	Registry *obs.Registry
	// Tracer records the slo.evaluate span on passes with transitions;
	// nil means obs.DefaultTracer().
	Tracer *obs.Tracer
	// Logger receives slo.alert transition events; nil means
	// obs.DefaultLogger().
	Logger *obs.Logger
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// alertState is the engine's internal per-(rule, instance) state machine:
// ok -> pending (breach seen) -> firing (breach held For) -> ok again
// only after ClearAfter of continuous clean evaluations.
type alertState struct {
	rule     *Rule
	instance string
	labels   map[string]string
	state    string // "ok" | StatePending | StateFiring
	since    time.Time
	breachAt time.Time // start of the current continuous breach
	cleanAt  time.Time // start of the current continuous clean run while firing
	value    float64
	reason   string
}

// Engine evaluates SLO rules against a TSDB. All methods are safe for
// concurrent use and on a nil receiver (the -metrics-addr-off path holds
// a nil engine).
type Engine struct {
	db     *obs.TSDB
	rules  []Rule
	reg    *obs.Registry
	tracer *obs.Tracer
	logger *obs.Logger
	clock  func() time.Time

	mu       sync.Mutex
	states   map[string]*alertState
	resolved []Alert // bounded history of resolutions, newest last
	subs     []func(Alert)
}

// NewEngine builds an engine. It starts no goroutines: drive it by
// wiring Evaluate as the TSDB's OnSample hook (slo.Start does).
func NewEngine(cfg EngineConfig) *Engine {
	rules := cfg.Rules
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.DefaultTracer()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.DefaultLogger()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Engine{
		db:     cfg.DB,
		rules:  rules,
		reg:    reg,
		tracer: tracer,
		logger: logger,
		clock:  clock,
		states: make(map[string]*alertState),
	}
}

// Rules returns the rule set the engine evaluates.
func (e *Engine) Rules() []Rule {
	if e == nil {
		return nil
	}
	return e.rules
}

// Subscribe registers fn to be called (synchronously, from the
// evaluation pass) on every transition to firing and to resolved. The
// steward's alert-triggered repair plugs in here; callbacks must not
// block.
func (e *Engine) Subscribe(fn func(Alert)) {
	if e == nil || fn == nil {
		return
	}
	e.mu.Lock()
	e.subs = append(e.subs, fn)
	e.mu.Unlock()
}

// verdict is one rule instance's evaluation outcome.
type verdict struct {
	instance string
	valid    bool // enough data to have an opinion
	breach   bool
	value    float64
	reason   string
}

// Evaluate runs one pass over every rule. It is a no-op on a nil engine
// and allocates nothing in that case (the off path's AllocsPerRun guard
// covers it).
func (e *Engine) Evaluate() {
	if e == nil {
		return
	}
	now := e.clock()

	var verdicts []struct {
		rule *Rule
		v    verdict
	}
	for i := range e.rules {
		r := &e.rules[i]
		for _, v := range e.evaluateRule(r) {
			verdicts = append(verdicts, struct {
				rule *Rule
				v    verdict
			}{r, v})
		}
	}

	e.mu.Lock()
	var transitions []Alert
	seen := make(map[string]bool, len(verdicts))
	for _, rv := range verdicts {
		key := rv.rule.Name + "|" + rv.v.instance
		seen[key] = true
		st := e.states[key]
		if st == nil {
			_, labels := obs.ParseLabels(rv.v.instance)
			st = &alertState{
				rule:     rv.rule,
				instance: rv.v.instance,
				labels:   labels,
				state:    "ok",
			}
			e.states[key] = st
		}
		if a, changed := st.step(now, rv.v); changed {
			transitions = append(transitions, a)
			if a.State == StateResolved {
				e.resolved = append(e.resolved, a)
				if len(e.resolved) > 32 {
					e.resolved = e.resolved[len(e.resolved)-32:]
				}
			}
		}
	}
	// Instances that vanished from the TSDB (e.g. a depot no longer being
	// talked to) evaluate as clean so a firing alert can still resolve.
	for key, st := range e.states {
		if seen[key] {
			continue
		}
		if a, changed := st.step(now, verdict{instance: st.instance}); changed {
			transitions = append(transitions, a)
			if a.State == StateResolved {
				e.resolved = append(e.resolved, a)
			}
		}
	}
	firing := 0
	for _, st := range e.states {
		if st.state == StateFiring {
			firing++
		}
	}
	subs := e.subs
	e.mu.Unlock()

	e.reg.Gauge(obs.MSLOAlertsFiring).Set(int64(firing))

	if len(transitions) == 0 {
		return
	}
	// One span per pass-with-transitions (not per pass: that would flood
	// the trace ring at the sampling rate); the slo.alert events stamp
	// its trace ID so /debug/alerts changes join against /debug/traces.
	ctx, span := e.tracer.StartSpan(context.Background(), obs.SpanSLOEvaluate)
	span.SetAttr("transitions", strconv.Itoa(len(transitions)))
	for _, a := range transitions {
		lv := slog.LevelInfo
		if a.State == StateFiring {
			lv = slog.LevelWarn
		}
		e.logger.Log(ctx, lv, obs.EvSLOAlert, "rule", a.Rule, "instance", a.Instance,
			"state", a.State, "severity", a.Severity, "value", a.Value, "threshold", a.Threshold)
		for _, fn := range subs {
			fn(a)
		}
	}
	span.Finish()
}

// step advances one state machine with a fresh verdict, returning the
// externally visible alert and whether a reportable transition (to
// firing or to resolved) happened. Pending entries/exits are tracked but
// not reported to subscribers. Caller holds e.mu.
func (st *alertState) step(now time.Time, v verdict) (Alert, bool) {
	breach := v.valid && v.breach
	if v.valid || breach {
		st.value = v.value
		st.reason = v.reason
	}
	switch st.state {
	case "ok":
		if breach {
			st.breachAt = now
			if st.rule.For <= 0 {
				st.state = StateFiring
				st.since = now
				return st.alert(StateFiring), true
			}
			st.state = StatePending
			st.since = now
		}
	case StatePending:
		if !breach {
			// One clean sample cancels a pending alert: flap damping on the
			// way up is the For window itself.
			st.state = "ok"
			st.breachAt = time.Time{}
			return Alert{}, false
		}
		if now.Sub(st.breachAt) >= st.rule.For.D() {
			st.state = StateFiring
			st.since = now
			return st.alert(StateFiring), true
		}
	case StateFiring:
		if breach {
			st.cleanAt = time.Time{} // the clean run is broken
			return Alert{}, false
		}
		if st.cleanAt.IsZero() {
			st.cleanAt = now
		}
		if now.Sub(st.cleanAt) >= st.rule.ClearAfter.D() {
			st.state = "ok"
			st.since = now
			st.cleanAt = time.Time{}
			st.breachAt = time.Time{}
			return st.alert(StateResolved), true
		}
	}
	return Alert{}, false
}

// alert renders the state machine as an external Alert in the given
// state.
func (st *alertState) alert(state string) Alert {
	return Alert{
		Rule:      st.rule.Name,
		Severity:  st.rule.Severity,
		Scope:     st.rule.Scope,
		Instance:  st.instance,
		Labels:    st.labels,
		State:     state,
		Since:     st.since,
		Value:     st.value,
		Threshold: st.rule.threshold(),
		Reason:    st.reason,
	}
}

// threshold is the rule's limit in the units of Alert.Value.
func (r *Rule) threshold() float64 {
	switch r.Kind {
	case KindLatencyQuantile:
		return r.ThresholdMs
	case KindErrorRate:
		return r.MaxRatio
	case KindBurnRate:
		return r.FastBurn
	case KindGaugeThreshold:
		if r.MaxValue != nil {
			return *r.MaxValue
		}
		if r.MinValue != nil {
			return *r.MinValue
		}
	}
	return 0
}

// evaluateRule computes the verdicts of one rule: one per instance for
// expanded families, a single aggregate verdict otherwise.
func (e *Engine) evaluateRule(r *Rule) []verdict {
	switch r.Kind {
	case KindLatencyQuantile:
		return e.evalLatency(r)
	case KindGaugeThreshold:
		return e.evalGauge(r)
	case KindErrorRate:
		v, ratio, total := e.ratio(r.ErrorMetric, r.TotalMetric, r.Window.D())
		v.breach = ratio > r.MaxRatio
		v.value = ratio
		v.valid = total >= float64(r.MinCount)
		v.reason = fmt.Sprintf("%s/%s = %.3f over %s (limit %.3f)",
			r.ErrorMetric, r.TotalMetric, ratio, r.Window.D(), r.MaxRatio)
		return []verdict{v}
	case KindBurnRate:
		budget := 1 - r.Objective
		fv, fRatio, fTotal := e.ratio(r.ErrorMetric, r.TotalMetric, r.FastWindow.D())
		_, sRatio, _ := e.ratio(r.ErrorMetric, r.TotalMetric, r.SlowWindow.D())
		fastBurn := fRatio / budget
		slowBurn := sRatio / budget
		fv.valid = fTotal >= float64(r.MinCount)
		fv.breach = fastBurn > r.FastBurn && slowBurn > r.SlowBurn
		fv.value = fastBurn
		fv.reason = fmt.Sprintf("budget burn %.1fx/%s and %.1fx/%s (limits %.1fx, %.1fx)",
			fastBurn, r.FastWindow.D(), slowBurn, r.SlowWindow.D(), r.FastBurn, r.SlowBurn)
		return []verdict{fv}
	}
	return nil
}

// evalLatency expands the histogram family into per-instance verdicts.
func (e *Engine) evalLatency(r *Rule) []verdict {
	var names []string
	if strings.ContainsRune(r.Metric, '{') {
		names = []string{r.Metric}
	} else {
		for _, name := range e.db.Names() {
			if obs.BaseName(name) == r.Metric {
				names = append(names, name)
			}
		}
	}
	out := make([]verdict, 0, len(names))
	for _, name := range names {
		q, n := e.db.QuantileOver(name, r.Quantile, r.Window.D())
		out = append(out, verdict{
			instance: name,
			valid:    n >= int64(r.MinCount),
			breach:   q > r.ThresholdMs,
			value:    q,
			reason: fmt.Sprintf("p%g %.1fms over %s (limit %.1fms, n=%d)",
				r.Quantile*100, q, r.Window.D(), r.ThresholdMs, n),
		})
	}
	return out
}

// evalGauge expands a gauge family into per-instance verdicts against
// the rule's [min_value, max_value] band, using each series' latest
// sample. A series with no samples yet has no opinion.
func (e *Engine) evalGauge(r *Rule) []verdict {
	var names []string
	if strings.ContainsRune(r.Metric, '{') {
		names = []string{r.Metric}
	} else {
		for _, name := range e.db.Names() {
			if obs.BaseName(name) == r.Metric {
				names = append(names, name)
			}
		}
	}
	out := make([]verdict, 0, len(names))
	for _, name := range names {
		pt, ok := e.db.Latest(name)
		if !ok {
			out = append(out, verdict{instance: name})
			continue
		}
		v := pt.V
		breach := false
		reason := ""
		switch {
		case r.MinValue != nil && v < *r.MinValue:
			breach = true
			reason = fmt.Sprintf("%s = %.3f below floor %.3f", name, v, *r.MinValue)
		case r.MaxValue != nil && v > *r.MaxValue:
			breach = true
			reason = fmt.Sprintf("%s = %.3f above ceiling %.3f", name, v, *r.MaxValue)
		default:
			reason = fmt.Sprintf("%s = %.3f within bounds", name, v)
		}
		out = append(out, verdict{
			instance: name,
			valid:    true,
			breach:   breach,
			value:    v,
			reason:   reason,
		})
	}
	return out
}

// ratio sums the reset-aware increases of every instance of two families
// over the window and returns err/total (0 when total is 0).
func (e *Engine) ratio(errFamily, totalFamily string, window time.Duration) (verdict, float64, float64) {
	var errInc, totInc float64
	for _, name := range e.db.Names() {
		switch obs.BaseName(name) {
		case errFamily:
			d, _ := e.db.Delta(name, window)
			errInc += d
		case totalFamily:
			d, _ := e.db.Delta(name, window)
			totInc += d
		}
	}
	ratio := 0.0
	if totInc > 0 {
		ratio = errInc / totInc
	}
	return verdict{}, ratio, totInc
}

// Alerts returns the active (pending and firing) alerts plus the
// retained resolution history, stable-sorted: firing first, then
// pending, then resolved, each newest first.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Alert
	for _, st := range e.states {
		if st.state == StatePending || st.state == StateFiring {
			out = append(out, st.alert(st.state))
		}
	}
	out = append(out, e.resolved...)
	rank := map[string]int{StateFiring: 0, StatePending: 1, StateResolved: 2}
	sort.SliceStable(out, func(i, j int) bool {
		if rank[out[i].State] != rank[out[j].State] {
			return rank[out[i].State] < rank[out[j].State]
		}
		return out[i].Since.After(out[j].Since)
	})
	return out
}

// Firing returns just the firing alerts.
func (e *Engine) Firing() []Alert {
	var out []Alert
	for _, a := range e.Alerts() {
		if a.State == StateFiring {
			out = append(out, a)
		}
	}
	return out
}

// HealthError reports a non-nil error while any critical alert fires —
// the obs.ServeOptions.Health hook that degrades /healthz to 503. The
// error text names the firing rule(s), so the probe body says what broke.
func (e *Engine) HealthError() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var names []string
	for _, st := range e.states {
		if st.state == StateFiring && st.rule.Severity == SeverityCritical {
			n := st.rule.Name
			if st.instance != "" {
				n += "(" + st.instance + ")"
			}
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	return fmt.Errorf("slo: critical alert firing: %s", strings.Join(names, ", "))
}

// alertsResponse is the /debug/alerts JSON shape.
type alertsResponse struct {
	Firing int     `json:"firing"`
	Alerts []Alert `json:"alerts"`
}

// Handler serves the alert state as JSON at /debug/alerts.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		alerts := e.Alerts()
		resp := alertsResponse{Alerts: alerts}
		if resp.Alerts == nil {
			resp.Alerts = []Alert{}
		}
		for _, a := range alerts {
			if a.State == StateFiring {
				resp.Firing++
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}
