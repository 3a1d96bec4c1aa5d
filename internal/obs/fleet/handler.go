package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"lonviz/internal/obs/slo"
)

// fleetResponse is the /debug/fleet JSON shape.
type fleetResponse struct {
	// Self is the hosting process's own metrics address.
	Self string `json:"self,omitempty"`
	// Updated is the end of the last scrape pass; ScrapeMs its duration.
	Updated  time.Time `json:"updated,omitempty"`
	ScrapeMs float64   `json:"scrape_ms,omitempty"`
	// Interval is the poll interval in seconds.
	IntervalS float64 `json:"interval_s"`
	// Members is the health matrix, sorted by address.
	Members []Member `json:"members"`
	// Aggregates are the folded cluster series' current values (the
	// same values the host's TSDB retains as fleet.*).
	Aggregates map[string]float64 `json:"aggregates"`
	// Firing counts fleet-scope alerts currently firing; Alerts is the
	// engine's full fleet-scope alert state.
	Firing int         `json:"firing"`
	Alerts []slo.Alert `json:"alerts"`
}

func (f *Fleet) response(engine *slo.Engine) fleetResponse {
	resp := fleetResponse{
		IntervalS:  f.interval.Seconds(),
		Members:    f.Members(),
		Aggregates: f.Aggregates(),
		Alerts:     []slo.Alert{},
	}
	for _, a := range engine.Alerts() {
		if a.Scope != slo.ScopeFleet {
			continue
		}
		resp.Alerts = append(resp.Alerts, a)
		if a.State == slo.StateFiring {
			resp.Firing++
		}
	}
	f.mu.Lock()
	resp.Self = f.cfg.Self
	resp.Updated = f.lastPass
	resp.ScrapeMs = f.lastPassMs
	f.mu.Unlock()
	return resp
}

// Handler serves the fleet view at /debug/fleet: the topology and
// health matrix, cluster aggregates, and the engine's fleet-scope alerts
// — JSON by default, a human-readable matrix with ?format=text.
func (f *Fleet) Handler(engine *slo.Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := f.response(engine)
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			renderText(w, resp)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}

// renderText writes the fleet view as an operator-readable matrix.
func renderText(w http.ResponseWriter, resp fleetResponse) {
	fmt.Fprintf(w, "fleet  self=%s  interval=%.0fs  last scrape %.1fms", resp.Self, resp.IntervalS, resp.ScrapeMs)
	if !resp.Updated.IsZero() {
		fmt.Fprintf(w, "  updated %s", resp.Updated.Format(time.RFC3339))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-26s %-8s %-9s %-10s %8s %8s %7s  %s\n",
		"NODE", "KIND", "STATE", "VERSION", "UPTIME", "P99MS", "ALERTS", "NOTE")
	for _, m := range resp.Members {
		note := m.Err
		if note == "" {
			note = m.Health
		}
		fmt.Fprintf(w, "%-26s %-8s %-9s %-10s %8s %8.1f %7d  %s\n",
			m.Addr, m.Kind, m.State, m.Version,
			formatUptime(m.UptimeS), m.P99Ms, m.AlertsFiring, note)
	}
	fmt.Fprintln(w)
	keys := make([]string, 0, len(resp.Aggregates))
	for k := range resp.Aggregates {
		if strings.Contains(k, "{node=") || strings.Contains(k, ",node=") {
			continue // per-node mirrors: the matrix above covers them
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "fleet.%-32s %.3f\n", k, resp.Aggregates[k])
	}
	if len(resp.Alerts) > 0 {
		fmt.Fprintln(w)
		for _, a := range resp.Alerts {
			fmt.Fprintf(w, "alert %-24s %-9s %-8s %s\n", a.Rule, a.State, a.Severity, a.Reason)
		}
	}
}

func formatUptime(s float64) string {
	if s <= 0 {
		return "-"
	}
	d := time.Duration(s * float64(time.Second)).Round(time.Second)
	return d.String()
}
