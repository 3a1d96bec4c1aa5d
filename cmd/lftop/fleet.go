package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"lonviz/internal/obs"
)

// fleetMemberLine is one health-matrix row from /debug/fleet, plus the
// per-node latency sparkline lftop derives from the steward's TSDB.
type fleetMemberLine struct {
	Addr         string  `json:"addr"`
	Kind         string  `json:"kind"`
	State        string  `json:"state"`
	UptimeS      float64 `json:"uptime_s,omitempty"`
	P99Ms        float64 `json:"p99_ms,omitempty"`
	AlertsFiring int     `json:"alerts_firing,omitempty"`
	Health       string  `json:"health,omitempty"`
	Err          string  `json:"err,omitempty"`
	Spark        string  `json:"spark,omitempty"`
}

// fleetSummary is everything lftop -fleet shows for one scraping
// steward; it doubles as the -fleet -json schema.
type fleetSummary struct {
	Endpoint   string             `json:"endpoint"`
	Err        string             `json:"err,omitempty"`
	Self       string             `json:"self,omitempty"`
	Updated    string             `json:"updated,omitempty"`
	ScrapeMs   float64            `json:"scrape_ms,omitempty"`
	Members    []fleetMemberLine  `json:"members"`
	Aggregates map[string]float64 `json:"aggregates,omitempty"`
	FPSSpark   string             `json:"fps_spark,omitempty"`
	Firing     int                `json:"firing"`
	Alerts     []alertLine        `json:"alerts,omitempty"`
}

// pollFleet pulls one scraping steward's /debug/fleet view and decorates
// it with sparklines of the fleet.* series in its /debug/tsdb.
func (t *lftop) pollFleet(ep string) fleetSummary {
	sum := fleetSummary{Endpoint: ep}
	var doc struct {
		Self       string             `json:"self"`
		Updated    time.Time          `json:"updated"`
		ScrapeMs   float64            `json:"scrape_ms"`
		Members    []fleetMemberLine  `json:"members"`
		Aggregates map[string]float64 `json:"aggregates"`
		alertDoc
	}
	if err := t.pc.GetJSON(context.Background(), ep, "/debug/fleet", nil, &doc); err != nil {
		sum.Err = err.Error()
		return sum
	}
	sum.Self = doc.Self
	if !doc.Updated.IsZero() {
		sum.Updated = doc.Updated.UTC().Format(time.RFC3339)
	}
	sum.ScrapeMs = doc.ScrapeMs
	sum.Members = doc.Members
	sum.Aggregates = doc.Aggregates
	sum.Firing = doc.Firing
	sum.Alerts = doc.lines()
	t.fleetSparks(ep, &sum)
	return sum
}

// fleetSparks fills the per-node latency sparklines and the fleet fps
// sparkline from the steward's TSDB.
func (t *lftop) fleetSparks(ep string, sum *fleetSummary) {
	// Per node, keep the sparkline of the hottest p99 family so the matrix
	// column tracks whatever that member actually serves.
	best := make(map[string]historyLine, len(sum.Members))
	for _, name := range t.seriesNames(ep, obs.MFleetNodeP99Ms+"{") {
		_, labels := obs.ParseLabels(name)
		node := labels["node"]
		if node == "" {
			continue
		}
		h, ok := t.fetchSeries(ep, name, "")
		if !ok {
			continue
		}
		if prev, seen := best[node]; !seen || h.MaxMs > prev.MaxMs {
			best[node] = h
		}
	}
	for i := range sum.Members {
		if h, ok := best[sum.Members[i].Addr]; ok {
			sum.Members[i].Spark = h.Spark
		}
	}
	if h, ok := t.fetchSeries(ep, obs.MFleetFPS, ""); ok {
		sum.FPSSpark = h.Spark
	}
}

func writeFleetJSON(w io.Writer, sums []fleetSummary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Fleet []fleetSummary `json:"fleet"`
	}{sums})
}

// renderFleet draws the fleet dashboard: one health matrix per scraping
// steward, cluster aggregates, and active fleet alerts.
func renderFleet(w io.Writer, sums []fleetSummary, live bool) {
	if live {
		fmt.Fprint(w, "\x1b[2J\x1b[H")
	}
	fmt.Fprintf(w, "lftop -fleet — %s — %d steward(s)\n", time.Now().Format("15:04:05"), len(sums))
	for _, s := range sums {
		fmt.Fprintf(w, "\n== %s ==\n", s.Endpoint)
		if s.Err != "" {
			fmt.Fprintf(w, "  UNREACHABLE: %s\n", s.Err)
			continue
		}
		fmt.Fprintf(w, "  scrape %.1fms", s.ScrapeMs)
		if s.Updated != "" {
			fmt.Fprintf(w, "  updated %s", s.Updated)
		}
		if s.FPSSpark != "" {
			fmt.Fprintf(w, "  fps %s", s.FPSSpark)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  %-26s %-8s %-9s %8s %8s %6s  %-18s %s\n",
			"node", "kind", "state", "uptime", "p99(ms)", "alerts", "p99 spark", "note")
		for _, m := range s.Members {
			note := m.Err
			if note == "" {
				note = m.Health
			}
			fmt.Fprintf(w, "  %-26s %-8s %-9s %8s %8.1f %6d  %-18s %s\n",
				m.Addr, m.Kind, m.State, fmtUptime(m.UptimeS),
				m.P99Ms, m.AlertsFiring, m.Spark, note)
		}
		keys := make([]string, 0, len(s.Aggregates))
		for k := range s.Aggregates {
			if strings.Contains(k, "{") {
				continue // per-node/per-exnode mirrors: matrix and alerts cover them
			}
			keys = append(keys, k)
		}
		if len(keys) > 0 {
			sort.Strings(keys)
			fmt.Fprint(w, "  cluster: ")
			for i, k := range keys {
				if i > 0 {
					fmt.Fprint(w, "  ")
				}
				fmt.Fprintf(w, "%s=%.3g", k, s.Aggregates[k])
			}
			fmt.Fprintln(w)
		}
		if len(s.Alerts) > 0 {
			fmt.Fprintf(w, "  fleet alerts (%d firing):\n", s.Firing)
			for _, a := range s.Alerts {
				fmt.Fprintf(w, "    %-9s %-8s %-24s %s value=%.2f threshold=%.2f\n",
					a.State, a.Severity, a.Rule, a.Instance, a.Value, a.Threshold)
			}
		}
	}
}

func fmtUptime(s float64) string {
	if s <= 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Second).String()
}
