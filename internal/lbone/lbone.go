// Package lbone implements the Logistical Backbone: the resource directory
// that lets applications "find the closest set of IBP depots that can
// satisfy the needs of an application" (paper section 2.2). Depots register
// themselves with simulated network coordinates and capacity; clients query
// for the nearest live depots with enough free space. The paper's system
// uses it to pick the network caches near the client.
//
// The service speaks JSON over HTTP (net/http), in contrast to IBP's raw
// TCP protocol — mirroring how the real L-Bone was a higher-level service
// above the depot fabric.
package lbone

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lonviz/internal/obs"
)

// Member kinds. Depot lookups only ever return depots; the other kinds
// exist so the fleet scraper can discover every process of a deployment
// through the one directory that already tracks liveness.
const (
	KindDepot   = "depot"
	KindEdge    = "edge"
	KindSteward = "steward"
	KindAgent   = "agent"
)

// DepotRecord describes one registered directory member. Despite the
// historical name it covers non-depot members too (Kind below); depots
// remain the only kind Lookup returns.
type DepotRecord struct {
	// Addr is the member's service endpoint (host:port) — the IBP address
	// for depots, the cache address for edges.
	Addr string `json:"addr"`
	// Kind classifies the member: "" or "depot" (storage, returned by
	// lookups), "edge", "steward", "agent" (discovery-only).
	Kind string `json:"kind,omitempty"`
	// MetricsAddr is the member's observability endpoint (-metrics-addr),
	// the address a fleet scraper pulls /metrics from. Optional.
	MetricsAddr string `json:"metricsAddr,omitempty"`
	// X, Y are simulated network coordinates; distance in this plane
	// stands in for network proximity.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Capacity and Free report storage in bytes (zero for non-depots).
	Capacity int64 `json:"capacity"`
	Free     int64 `json:"free"`
	// LastSeen is set by the server on registration.
	LastSeen time.Time `json:"lastSeen,omitempty"`
}

// IsDepot reports whether the record is a storage depot (the only kind
// lookups return).
func (r DepotRecord) IsDepot() bool {
	return r.Kind == "" || r.Kind == KindDepot
}

// Server is the directory. Depots re-register periodically (heartbeat);
// records older than TTL are considered dead and filtered from lookups.
type Server struct {
	// TTL is the registration freshness window (default 30s).
	TTL time.Duration
	// Clock supplies time (for tests); nil means time.Now.
	Clock func() time.Time
	// Tracer receives the server-side request spans opened for traced
	// requests (those carrying an X-Lonviz-Trace header); nil records into
	// obs.DefaultTracer().
	Tracer *obs.Tracer

	mu      sync.Mutex
	records map[string]DepotRecord
	httpSrv *http.Server
	l       net.Listener
}

// NewServer creates an empty directory.
func NewServer() *Server {
	return &Server{TTL: 30 * time.Second, records: make(map[string]DepotRecord)}
}

func (s *Server) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// Register upserts a member record (also the heartbeat path).
func (s *Server) Register(rec DepotRecord) error {
	if rec.Addr == "" {
		return fmt.Errorf("lbone: record missing addr")
	}
	switch rec.Kind {
	case "", KindDepot, KindEdge, KindSteward, KindAgent:
	default:
		return fmt.Errorf("lbone: unknown member kind %q", rec.Kind)
	}
	if rec.Capacity < 0 || rec.Free < 0 || rec.Free > rec.Capacity {
		return fmt.Errorf("lbone: implausible capacity %d/%d", rec.Free, rec.Capacity)
	}
	rec.LastSeen = s.now()
	s.mu.Lock()
	s.records[rec.Addr] = rec
	s.mu.Unlock()
	return nil
}

// Lookup returns up to n live depots with at least minFree bytes free,
// sorted by distance from (x, y). n <= 0 means all.
func (s *Server) Lookup(x, y float64, n int, minFree int64) []DepotRecord {
	return s.LookupExcluding(x, y, n, minFree, nil)
}

// LookupExcluding is Lookup with an exclusion list: depots whose address
// appears in exclude are never returned. Repair tooling uses it to ask
// for fresh depots that do not already hold a replica of the extent being
// re-replicated.
func (s *Server) LookupExcluding(x, y float64, n int, minFree int64, exclude []string) []DepotRecord {
	excluded := make(map[string]bool, len(exclude))
	for _, addr := range exclude {
		excluded[addr] = true
	}
	live := s.live()
	out := live[:0]
	for _, rec := range live {
		if rec.IsDepot() && rec.Free >= minFree && !excluded[rec.Addr] {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di := math.Hypot(out[i].X-x, out[i].Y-y)
		dj := math.Hypot(out[j].X-x, out[j].Y-y)
		if di != dj {
			return di < dj
		}
		return out[i].Addr < out[j].Addr
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Members returns every live member record of any kind, sorted by
// address — the fleet scraper's discovery sweep.
func (s *Server) Members() []DepotRecord {
	out := s.live()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// live drops every record whose heartbeat is older than TTL and returns
// the rest, in no order. Every read sweeps, so a dead member is gone from
// the directory the first time anyone asks after its TTL.
func (s *Server) live() []DepotRecord {
	cutoff := s.now().Add(-s.TTL)
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DepotRecord, 0, len(s.records))
	for addr, rec := range s.records {
		if rec.LastSeen.Before(cutoff) {
			delete(s.records, addr)
			continue
		}
		out = append(out, rec)
	}
	return out
}

// ServeHTTP implements http.Handler with three endpoints:
// POST /register (DepotRecord JSON body), GET /lookup, and GET /members
// (every live member of any kind). Requests carrying an X-Lonviz-Trace
// header get a server-side span parented under the calling client's span.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if tc, ok := obs.ExtractHTTP(r.Header); ok {
		tracer := s.Tracer
		if tracer == nil {
			tracer = obs.DefaultTracer()
		}
		_, span := tracer.StartSpan(obs.ContextWithRemote(r.Context(), tc), obs.SpanLBoneServe)
		span.SetAttr("op", strings.TrimPrefix(r.URL.Path, "/"))
		defer span.Finish()
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/register":
		var rec DepotRecord
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&rec); err != nil {
			http.Error(w, "bad record: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.Register(rec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case r.Method == http.MethodGet && r.URL.Path == "/lookup":
		q := r.URL.Query()
		x, _ := strconv.ParseFloat(q.Get("x"), 64)
		y, _ := strconv.ParseFloat(q.Get("y"), 64)
		n, _ := strconv.Atoi(q.Get("n"))
		minFree, _ := strconv.ParseInt(q.Get("minfree"), 10, 64)
		var exclude []string
		if ex := q.Get("exclude"); ex != "" {
			exclude = strings.Split(ex, ",")
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.LookupExcluding(x, y, n, minFree, exclude)); err != nil {
			// Too late to change the status; the client's decoder will fail.
			return
		}
	case r.Method == http.MethodGet && r.URL.Path == "/members":
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.Members()); err != nil {
			return
		}
	default:
		http.NotFound(w, r)
	}
}

// ListenAndServe starts the directory on addr (":0" for ephemeral) and
// returns the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv, s.l = &http.Server{Handler: s}, l
	go s.httpSrv.Serve(l)
	return l.Addr().String(), nil
}

// Close stops the HTTP server if started with ListenAndServe, closing its
// listener even if the serving goroutine has not reached it yet.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	err := s.httpSrv.Close()
	_ = s.l.Close() // usually httpSrv.Close has closed it already
	return err
}

// Client talks to a directory server over HTTP.
type Client struct {
	// BaseURL is "http://host:port".
	BaseURL string
	// HTTP is the client to use; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Register registers (or heartbeats) a depot record. The context's trace
// context (if any) rides the X-Lonviz-Trace header.
func (c *Client) Register(ctx context.Context, rec DepotRecord) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/register", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectHTTP(ctx, req.Header)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("lbone: register: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("lbone: register: status %s", resp.Status)
	}
	return nil
}

// Lookup queries the nearest live depots.
func (c *Client) Lookup(ctx context.Context, x, y float64, n int, minFree int64) ([]DepotRecord, error) {
	return c.LookupExcluding(ctx, x, y, n, minFree, nil)
}

// LookupExcluding queries the nearest live depots whose address is not in
// exclude (server-side filtering, so n counts usable results).
func (c *Client) LookupExcluding(ctx context.Context, x, y float64, n int, minFree int64, exclude []string) ([]DepotRecord, error) {
	u := fmt.Sprintf("%s/lookup?x=%g&y=%g&n=%d&minfree=%d", c.BaseURL, x, y, n, minFree)
	if len(exclude) > 0 {
		u += "&exclude=" + url.QueryEscape(strings.Join(exclude, ","))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	obs.InjectHTTP(ctx, req.Header)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("lbone: lookup: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("lbone: lookup: status %s", resp.Status)
	}
	var out []DepotRecord
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("lbone: lookup decode: %w", err)
	}
	return out, nil
}

// Members fetches every live directory member of any kind — the fleet
// scraper's discovery path.
func (c *Client) Members(ctx context.Context) ([]DepotRecord, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/members", nil)
	if err != nil {
		return nil, err
	}
	obs.InjectHTTP(ctx, req.Header)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("lbone: members: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("lbone: members: status %s", resp.Status)
	}
	var out []DepotRecord
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("lbone: members decode: %w", err)
	}
	return out, nil
}

// Heartbeat runs a registration loop every interval until stop is closed.
// It is the depot-side liveness mechanism.
func (c *Client) Heartbeat(rec func() DepotRecord, interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if err := c.Register(context.Background(), rec()); err != nil {
			// Best effort: the directory may be briefly unreachable.
			_ = err
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}
