package fleet

import (
	"encoding/json"
	"net/http"
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

// Handler serves the fleet view at /debug/fleet as JSON: the topology and
// health matrix, cluster aggregates, and the engine's fleet-scope alerts.
// lftop -fleet is its one renderer.
func (f *Fleet) Handler(engine *slo.Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(f.response(engine))
	})
}
