package lors

import (
	"sort"
	"sync"
	"time"

	"lonviz/internal/obs"
)

// HealthConfig tunes the depot circuit breaker.
type HealthConfig struct {
	// FailureThreshold is the number of consecutive failures that opens a
	// depot's circuit (default 3).
	FailureThreshold int
	// Cooldown is how long an open circuit refuses traffic before allowing
	// a half-open probe (default 5s).
	Cooldown time.Duration
	// Now overrides the clock; nil uses time.Now. Tests inject a fake
	// clock to make cooldown expiry deterministic.
	Now func() time.Time
	// Obs receives circuit-trip counters and the open-circuit gauge
	// (lors.circuit.*); nil records into obs.Default().
	Obs *obs.Registry
}

func (c *HealthConfig) defaults() {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// DepotHealth is a snapshot of one depot's breaker state.
type DepotHealth struct {
	Depot               string
	ConsecutiveFailures int
	Failures, Successes int64
	// Open reports whether the circuit currently refuses traffic.
	Open bool
	// OpenUntil is when the cooldown ends (zero if the circuit is closed).
	OpenUntil time.Time
}

// HealthTracker is a consecutive-failure circuit breaker over depot
// addresses, shared by every fetch, prefetch, and prestage path of a
// client so none of them keeps hammering a dead or flapping depot. After
// FailureThreshold consecutive failures a depot's circuit opens: Allow
// returns false until the cooldown expires, at which point traffic is
// admitted again (half-open) and the next result closes or re-opens it.
// All methods are safe for concurrent use and safe on a nil receiver
// (a nil tracker allows everything and records nothing).
type HealthTracker struct {
	mu     sync.Mutex
	cfg    HealthConfig
	depots map[string]*depotState
}

type depotState struct {
	consecFails         int
	failures, successes int64
	openUntil           time.Time
}

// NewHealthTracker builds a tracker; a zero config gets the defaults.
func NewHealthTracker(cfg HealthConfig) *HealthTracker {
	cfg.defaults()
	return &HealthTracker{cfg: cfg, depots: make(map[string]*depotState)}
}

func (h *HealthTracker) state(addr string) *depotState {
	st, ok := h.depots[addr]
	if !ok {
		st = &depotState{}
		h.depots[addr] = st
	}
	return st
}

// Allow reports whether traffic to the depot is admitted. It is false only
// while the depot's circuit is open and the cooldown has not expired.
func (h *HealthTracker) Allow(addr string) bool {
	if h == nil {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.depots[addr]
	if !ok || st.openUntil.IsZero() {
		return true
	}
	return !h.cfg.Now().Before(st.openUntil)
}

// ReportSuccess records a successful operation, closing the circuit.
func (h *HealthTracker) ReportSuccess(addr string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state(addr)
	st.successes++
	st.consecFails = 0
	if !st.openUntil.IsZero() {
		registryOr(h.cfg.Obs).Gauge(obs.MLorsCircuitOpen).Add(-1)
	}
	st.openUntil = time.Time{}
}

// ReportFailure records a failed operation. Crossing the threshold (or
// failing a half-open probe) opens the circuit for one cooldown.
func (h *HealthTracker) ReportFailure(addr string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state(addr)
	st.failures++
	st.consecFails++
	if st.consecFails >= h.cfg.FailureThreshold {
		if st.openUntil.IsZero() {
			// Closed -> open transition: count the trip and raise the gauge.
			// A half-open probe failure merely extends the existing cooldown.
			reg := registryOr(h.cfg.Obs)
			reg.Counter(obs.MLorsCircuitTrips).Inc()
			reg.Gauge(obs.MLorsCircuitOpen).Add(1)
			obs.DefaultLogger().Warn(obs.EvLorsCircuitOpen, "depot", addr)
		}
		st.openUntil = h.cfg.Now().Add(h.cfg.Cooldown)
	}
}

// Snapshot returns the breaker state of every observed depot, sorted by
// address.
func (h *HealthTracker) Snapshot() []DepotHealth {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Now()
	out := make([]DepotHealth, 0, len(h.depots))
	for addr, st := range h.depots {
		out = append(out, DepotHealth{
			Depot:               addr,
			ConsecutiveFailures: st.consecFails,
			Failures:            st.failures,
			Successes:           st.successes,
			Open:                !st.openUntil.IsZero() && now.Before(st.openUntil),
			OpenUntil:           st.openUntil,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Depot < out[j].Depot })
	return out
}

// Open reports whether the depot's circuit is currently open.
func (h *HealthTracker) Open(addr string) bool { return !h.Allow(addr) }

// allowedReplicas filters a replica list down to depots whose circuit
// admits traffic. When every circuit is open it lets one replica through
// as a probe, the one whose cooldown ends soonest, so a client whose
// every depot tripped still reaches one that has come back. A failed
// probe re-opens that circuit, as a failed half-open probe does.
func allowedReplicas[T any](h *HealthTracker, reps []T, depotOf func(T) string) []T {
	if h == nil {
		return reps
	}
	out := make([]T, 0, len(reps))
	for _, r := range reps {
		if h.Allow(depotOf(r)) {
			out = append(out, r)
		}
	}
	if len(out) > 0 || len(reps) == 0 {
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	probe := reps[0]
	for _, r := range reps[1:] {
		if h.state(depotOf(r)).openUntil.Before(h.state(depotOf(probe)).openUntil) {
			probe = r
		}
	}
	return append(out, probe)
}
