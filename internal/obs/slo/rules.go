// Package slo evaluates service-level objectives against the obs.TSDB's
// retained history and turns breaches into alerts the rest of the stack
// can act on: /debug/alerts for operators, a degraded /healthz for load
// balancers, the structured event log for forensics, and subscriber
// callbacks for the steward's alert-triggered repairs.
//
// Rules are declarative and JSON-loadable (-slo-config); DefaultRules
// ships a generous built-in set so every daemon has basic coverage with
// no configuration. Three rule kinds cover the stack's needs:
//
//   - latency_quantile: a windowed quantile of one histogram family
//     (expanded per label instance, so "ibp.depot.ms" yields one alert
//     stream per depot) must stay under a threshold.
//   - error_rate: the ratio of one counter family's increase to
//     another's over a window must stay under a ceiling.
//   - burn_rate: multi-window error-budget burn (the fast/slow-burn
//     pattern): the alert fires only when both the fast and the slow
//     window burn the budget faster than their limits, which pages
//     quickly on a cliff yet ignores short blips.
//   - gauge_threshold: the latest value of one gauge family (expanded
//     per label instance) must stay inside a [min_value, max_value]
//     band. The fleet tier's replica-coverage and degraded-ratio rules
//     are gauge thresholds over cluster aggregates.
//
// Evaluation runs synchronously from the TSDB's sampling pass and is
// flap-damped by hysteresis: a breach must hold for `for` before firing,
// and a firing alert must pass continuously for `clear_after` before
// resolving, so one good (or bad) sample never flips state.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"lonviz/internal/obs"
)

// Duration is a time.Duration that unmarshals from JSON as either a Go
// duration string ("30s", "5m") or a number of seconds.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("slo: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("slo: bad duration %s (want \"30s\" or seconds)", b)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Rule kinds.
const (
	KindLatencyQuantile = "latency_quantile"
	KindErrorRate       = "error_rate"
	KindBurnRate        = "burn_rate"
	// KindGaugeThreshold watches the latest value of a gauge family: the
	// alert breaches when the value leaves the [min_value, max_value]
	// band (whichever bounds are set). It is the fleet tier's workhorse —
	// replica coverage below the replication factor, degraded-depot ratio
	// above a ceiling — but works on any node-local gauge too.
	KindGaugeThreshold = "gauge_threshold"
)

// Rule scopes: where the rule's inputs come from and who acts on it.
const (
	// ScopeNode rules read one process's own TSDB (the default).
	ScopeNode = "node"
	// ScopeFleet rules read the fleet.* series a fleet scraper folds from
	// every member into its host's registry.
	ScopeFleet = "fleet"
)

// Severities.
const (
	SeverityWarn = "warn"
	// SeverityCritical alerts additionally degrade /healthz to 503 while
	// firing.
	SeverityCritical = "critical"
)

// Rule is one declarative SLO. Fields apply per Kind; see the package
// comment and docs/OBSERVABILITY.md for the format.
type Rule struct {
	// Name identifies the rule in alerts, events, and the /healthz reason.
	Name string `json:"name"`
	// Severity is "warn" (default) or "critical".
	Severity string `json:"severity,omitempty"`
	// Kind selects the evaluation: latency_quantile | error_rate |
	// burn_rate | gauge_threshold.
	Kind string `json:"kind"`
	// Scope is "node" (default: the process's own series) or "fleet" (the
	// fleet.* series a fleet scraper folds). Scope does not change
	// evaluation — it documents provenance and is carried on alerts so
	// subscribers can tell a local breach from a cluster-wide one.
	Scope string `json:"scope,omitempty"`

	// Metric (latency_quantile) is the histogram family to watch; every
	// labeled instance ("ibp.depot.ms{depot=...}") gets its own alert
	// stream. An exact labeled name watches just that instance.
	Metric string `json:"metric,omitempty"`
	// Quantile (latency_quantile) in (0,1), e.g. 0.99.
	Quantile float64 `json:"quantile,omitempty"`
	// ThresholdMs (latency_quantile): the quantile must stay under this.
	ThresholdMs float64 `json:"threshold_ms,omitempty"`

	// ErrorMetric / TotalMetric (error_rate, burn_rate) are counter or
	// histogram families; every instance's increase is summed, so the
	// ratio is fleet-wide per process.
	ErrorMetric string `json:"error_metric,omitempty"`
	TotalMetric string `json:"total_metric,omitempty"`
	// MaxRatio (error_rate): errors/total must stay under this.
	MaxRatio float64 `json:"max_ratio,omitempty"`

	// MinValue / MaxValue (gauge_threshold) bound the gauge's latest
	// value: v < MinValue (when set) or v > MaxValue (when set) breaches.
	// At least one must be set; a gauge family expands per label instance
	// like latency_quantile does. Metric names the gauge family.
	MinValue *float64 `json:"min_value,omitempty"`
	MaxValue *float64 `json:"max_value,omitempty"`

	// Objective (burn_rate) is the availability target, e.g. 0.99; the
	// error budget is 1-Objective.
	Objective float64 `json:"objective,omitempty"`
	// FastWindow/SlowWindow (burn_rate) are the two evaluation windows;
	// FastBurn/SlowBurn are the budget-burn multiples each must exceed
	// for the alert to fire.
	FastWindow Duration `json:"fast_window,omitempty"`
	SlowWindow Duration `json:"slow_window,omitempty"`
	FastBurn   float64  `json:"fast_burn,omitempty"`
	SlowBurn   float64  `json:"slow_burn,omitempty"`

	// Window is the evaluation window (latency_quantile, error_rate).
	Window Duration `json:"window,omitempty"`
	// For is how long a breach must hold before the alert fires
	// (0 fires on the first breached evaluation).
	For Duration `json:"for,omitempty"`
	// ClearAfter is how long a firing alert must evaluate clean before it
	// resolves (default: max(For, one window); never less than one
	// sample, so a single good sample cannot resolve — nor a single bad
	// sample re-fire — the hysteresis the flap-damping tests pin).
	ClearAfter Duration `json:"clear_after,omitempty"`
	// MinCount is the minimum observations (quantile) or total increase
	// (ratios) the window must hold before the rule has an opinion
	// (default 1). Under it the rule evaluates clean.
	MinCount int `json:"min_count,omitempty"`
}

// Validate checks the rule is well-formed.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("slo: rule with empty name")
	}
	switch r.Severity {
	case "":
		r.Severity = SeverityWarn
	case SeverityWarn, SeverityCritical:
	default:
		return fmt.Errorf("slo: rule %q: bad severity %q (want warn|critical)", r.Name, r.Severity)
	}
	switch r.Scope {
	case "":
		r.Scope = ScopeNode
	case ScopeNode, ScopeFleet:
	default:
		return fmt.Errorf("slo: rule %q: bad scope %q (want node|fleet)", r.Name, r.Scope)
	}
	if r.MinCount <= 0 {
		r.MinCount = 1
	}
	switch r.Kind {
	case KindLatencyQuantile:
		if r.Metric == "" {
			return fmt.Errorf("slo: rule %q: latency_quantile needs metric", r.Name)
		}
		if r.Quantile <= 0 || r.Quantile >= 1 {
			return fmt.Errorf("slo: rule %q: quantile must be in (0,1)", r.Name)
		}
		if r.ThresholdMs <= 0 {
			return fmt.Errorf("slo: rule %q: threshold_ms must be positive", r.Name)
		}
		if r.Window <= 0 {
			return fmt.Errorf("slo: rule %q: window must be positive", r.Name)
		}
	case KindErrorRate:
		if r.ErrorMetric == "" || r.TotalMetric == "" {
			return fmt.Errorf("slo: rule %q: error_rate needs error_metric and total_metric", r.Name)
		}
		if r.MaxRatio <= 0 {
			return fmt.Errorf("slo: rule %q: max_ratio must be positive", r.Name)
		}
		if r.Window <= 0 {
			return fmt.Errorf("slo: rule %q: window must be positive", r.Name)
		}
	case KindBurnRate:
		if r.ErrorMetric == "" || r.TotalMetric == "" {
			return fmt.Errorf("slo: rule %q: burn_rate needs error_metric and total_metric", r.Name)
		}
		if r.Objective <= 0 || r.Objective >= 1 {
			return fmt.Errorf("slo: rule %q: objective must be in (0,1)", r.Name)
		}
		if r.FastWindow <= 0 || r.SlowWindow <= 0 {
			return fmt.Errorf("slo: rule %q: burn_rate needs fast_window and slow_window", r.Name)
		}
		if r.FastBurn <= 0 || r.SlowBurn <= 0 {
			return fmt.Errorf("slo: rule %q: burn_rate needs fast_burn and slow_burn", r.Name)
		}
	case KindGaugeThreshold:
		if r.Metric == "" {
			return fmt.Errorf("slo: rule %q: gauge_threshold needs metric", r.Name)
		}
		if r.MinValue == nil && r.MaxValue == nil {
			return fmt.Errorf("slo: rule %q: gauge_threshold needs min_value and/or max_value", r.Name)
		}
		if r.MinValue != nil && r.MaxValue != nil && *r.MinValue > *r.MaxValue {
			return fmt.Errorf("slo: rule %q: min_value above max_value", r.Name)
		}
	default:
		return fmt.Errorf("slo: rule %q: unknown kind %q", r.Name, r.Kind)
	}
	if r.ClearAfter <= 0 {
		ca := r.For
		if r.Window > ca {
			ca = r.Window
		}
		if ca <= 0 {
			ca = Duration(30 * time.Second)
		}
		r.ClearAfter = ca
	}
	return nil
}

// ruleFile is the on-disk shape of -slo-config.
type ruleFile struct {
	Rules []Rule `json:"rules"`
}

// LoadRules reads and validates a JSON rule file: either {"rules":[...]}
// or a bare array of rules.
func LoadRules(path string) ([]Rule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slo: reading rules: %w", err)
	}
	return ParseRules(b)
}

// ParseRules parses and validates rule JSON.
func ParseRules(b []byte) ([]Rule, error) {
	var rf ruleFile
	if err := json.Unmarshal(b, &rf); err != nil {
		var bare []Rule
		if err2 := json.Unmarshal(b, &bare); err2 != nil {
			return nil, fmt.Errorf("slo: parsing rules: %w", err)
		}
		rf.Rules = bare
	}
	seen := make(map[string]bool, len(rf.Rules))
	for i := range rf.Rules {
		if err := rf.Rules[i].Validate(); err != nil {
			return nil, err
		}
		if seen[rf.Rules[i].Name] {
			return nil, fmt.Errorf("slo: duplicate rule name %q", rf.Rules[i].Name)
		}
		seen[rf.Rules[i].Name] = true
	}
	return rf.Rules, nil
}

// DefaultRules is the built-in rule set every daemon runs when no
// -slo-config is given: generous thresholds meant to stay silent on a
// healthy deployment and fire on order-of-magnitude regressions.
func DefaultRules() []Rule {
	rules := []Rule{
		{
			Name:        "depot-latency-p99",
			Severity:    SeverityCritical,
			Kind:        KindLatencyQuantile,
			Metric:      obs.MIBPDepotMs,
			Quantile:    0.99,
			ThresholdMs: 2500,
			Window:      Duration(time.Minute),
			For:         Duration(10 * time.Second),
			ClearAfter:  Duration(30 * time.Second),
			MinCount:    20,
		},
		{
			Name:        "ibp-error-ratio",
			Severity:    SeverityCritical,
			Kind:        KindErrorRate,
			ErrorMetric: obs.MIBPOpErrors,
			TotalMetric: obs.MIBPOpMs,
			MaxRatio:    0.5,
			Window:      Duration(time.Minute),
			For:         Duration(10 * time.Second),
			ClearAfter:  Duration(30 * time.Second),
			MinCount:    20,
		},
		{
			// Shed-to-served ratio: shed requests never reach dispatch, so
			// the denominator counts only the work that got through. A
			// sustained shed volume above a quarter of served volume means
			// the depot is in real overload, not absorbing a blip.
			Name:        "ibp-shed-rate",
			Severity:    SeverityWarn,
			Kind:        KindErrorRate,
			ErrorMetric: obs.MIBPShed,
			TotalMetric: obs.MIBPOpMs,
			MaxRatio:    0.25,
			Window:      Duration(time.Minute),
			For:         Duration(10 * time.Second),
			ClearAfter:  Duration(30 * time.Second),
			MinCount:    20,
		},
		{
			// Runtime pathology degrades /healthz like any request-path
			// burn: a process pausing 250ms+ for GC at p99 is effectively
			// down for latency-sensitive browsing no matter what its
			// request metrics claim.
			Name:        "runtime-gc-pause-p99",
			Severity:    SeverityCritical,
			Kind:        KindLatencyQuantile,
			Metric:      obs.MRuntimeGCPauseMs,
			Quantile:    0.99,
			ThresholdMs: 250,
			Window:      Duration(time.Minute),
			For:         Duration(10 * time.Second),
			ClearAfter:  Duration(30 * time.Second),
			MinCount:    5,
		},
		{
			// Runnable goroutines waiting ~1s for a thread means the
			// process is CPU-starved; every deadline in flight is burning
			// in the scheduler queue, not in useful work.
			Name:        "runtime-sched-latency-p99",
			Severity:    SeverityCritical,
			Kind:        KindLatencyQuantile,
			Metric:      obs.MRuntimeSchedLatencyMs,
			Quantile:    0.99,
			ThresholdMs: 1000,
			Window:      Duration(time.Minute),
			For:         Duration(10 * time.Second),
			ClearAfter:  Duration(30 * time.Second),
			MinCount:    100,
		},
		{
			Name:        "lors-failover-burn",
			Severity:    SeverityWarn,
			Kind:        KindBurnRate,
			ErrorMetric: obs.MLorsFailedAttempts,
			TotalMetric: obs.MLorsReplicaTries,
			Objective:   0.9,
			FastWindow:  Duration(time.Minute),
			SlowWindow:  Duration(10 * time.Minute),
			FastBurn:    6,
			SlowBurn:    3,
			ClearAfter:  Duration(time.Minute),
			MinCount:    20,
		},
	}
	for i := range rules {
		// Defaults are authored valid; Validate also fills derived fields.
		if err := rules[i].Validate(); err != nil {
			panic(err)
		}
	}
	return rules
}

// Float is a convenience for authoring gauge_threshold bounds in code.
func Float(v float64) *float64 { return &v }

// FleetDefaultRules is the built-in rule set a fleet scraper's host
// evaluates beside its node rules (Options.Rules). replication is the
// deployment's intended replica count: coverage below it means some
// published exNode has lost redundancy and a single further failure can
// lose data availability.
func FleetDefaultRules(replication int) []Rule {
	if replication <= 0 {
		replication = 1
	}
	rules := []Rule{
		{
			// The fleet's reason to exist: replica coverage is recomputed
			// from live membership every scrape, so a depot death moves it
			// immediately — no For damping, the membership TTL already
			// absorbed the flap.
			Name:       "fleet-replica-coverage",
			Severity:   SeverityCritical,
			Kind:       KindGaugeThreshold,
			Scope:      ScopeFleet,
			Metric:     obs.MFleetCoverageMin,
			MinValue:   Float(float64(replication)),
			ClearAfter: Duration(2 * time.Second),
		},
		{
			// More than a quarter of depots down or degraded: the cluster
			// is losing capacity faster than replication can hide.
			Name:       "fleet-depots-degraded",
			Severity:   SeverityCritical,
			Kind:       KindGaugeThreshold,
			Scope:      ScopeFleet,
			Metric:     obs.MFleetDegradedRatio,
			MaxValue:   Float(0.25),
			ClearAfter: Duration(2 * time.Second),
		},
		{
			// Fleet-wide shed burn: members shedding work faster than the
			// error budget allows, cluster-wide — the overload is systemic,
			// not one hot depot.
			Name:        "fleet-shed-burn",
			Severity:    SeverityWarn,
			Kind:        KindBurnRate,
			Scope:       ScopeFleet,
			ErrorMetric: obs.MFleetShed,
			TotalMetric: obs.MFleetServed,
			Objective:   0.95,
			FastWindow:  Duration(time.Minute),
			SlowWindow:  Duration(10 * time.Minute),
			FastBurn:    6,
			SlowBurn:    3,
			ClearAfter:  Duration(time.Minute),
			MinCount:    20,
		},
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			panic(err)
		}
	}
	return rules
}
