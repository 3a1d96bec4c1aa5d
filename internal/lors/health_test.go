package lors

import (
	"testing"
	"time"
)

// fakeClock is an adjustable clock for deterministic cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracker(threshold int, cooldown time.Duration) (*HealthTracker, *fakeClock) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	h := NewHealthTracker(HealthConfig{
		FailureThreshold: threshold,
		Cooldown:         cooldown,
		Now:              clock.now,
	})
	return h, clock
}

func TestHealthTrackerOpensAtThreshold(t *testing.T) {
	h, _ := newTestTracker(3, time.Minute)
	const d = "depot:6714"
	h.ReportFailure(d)
	h.ReportFailure(d)
	if !h.Allow(d) {
		t.Fatal("circuit opened below threshold")
	}
	h.ReportFailure(d)
	if h.Allow(d) {
		t.Fatal("circuit still closed at threshold")
	}
	if !h.Open(d) {
		t.Fatal("Open disagrees with Allow")
	}
}

func TestHealthTrackerCooldownExpiry(t *testing.T) {
	h, clock := newTestTracker(1, time.Minute)
	const d = "depot:6714"
	h.ReportFailure(d)
	if h.Allow(d) {
		t.Fatal("circuit not open")
	}
	clock.advance(59 * time.Second)
	if h.Allow(d) {
		t.Fatal("circuit closed before cooldown expired")
	}
	clock.advance(2 * time.Second)
	if !h.Allow(d) {
		t.Fatal("cooldown expiry did not half-open the circuit")
	}
	// A failed half-open probe re-opens for another full cooldown.
	h.ReportFailure(d)
	if h.Allow(d) {
		t.Fatal("failed probe left the circuit closed")
	}
	clock.advance(61 * time.Second)
	if !h.Allow(d) {
		t.Fatal("second cooldown never expired")
	}
}

func TestHealthTrackerSuccessResets(t *testing.T) {
	h, _ := newTestTracker(3, time.Minute)
	const d = "depot:6714"
	h.ReportFailure(d)
	h.ReportFailure(d)
	h.ReportSuccess(d)
	// The streak restarted: two more failures must not open the circuit.
	h.ReportFailure(d)
	h.ReportFailure(d)
	if !h.Allow(d) {
		t.Fatal("non-consecutive failures opened the circuit")
	}
	h.ReportFailure(d)
	if h.Allow(d) {
		t.Fatal("threshold reached but circuit closed")
	}
	// A successful half-open probe closes an open circuit immediately.
	h.ReportSuccess(d)
	if !h.Allow(d) {
		t.Fatal("success did not close the circuit")
	}
}

func TestHealthTrackerSnapshot(t *testing.T) {
	h, _ := newTestTracker(2, time.Minute)
	h.ReportSuccess("b:1")
	h.ReportFailure("a:1")
	h.ReportFailure("a:1")
	snap := h.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d depots, want 2", len(snap))
	}
	if snap[0].Depot != "a:1" || snap[1].Depot != "b:1" {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
	if !snap[0].Open || snap[0].Failures != 2 || snap[0].ConsecutiveFailures != 2 {
		t.Errorf("a:1 state = %+v", snap[0])
	}
	if snap[1].Open || snap[1].Successes != 1 {
		t.Errorf("b:1 state = %+v", snap[1])
	}
}

func TestHealthTrackerNilSafe(t *testing.T) {
	var h *HealthTracker
	h.ReportFailure("x:1")
	h.ReportSuccess("x:1")
	if !h.Allow("x:1") {
		t.Error("nil tracker refused traffic")
	}
	if h.Open("x:1") {
		t.Error("nil tracker reported an open circuit")
	}
	if h.Snapshot() != nil {
		t.Error("nil tracker returned a snapshot")
	}
	reps := []string{"a", "b"}
	if got := allowedReplicas(h, reps, func(s string) string { return s }); len(got) != 2 {
		t.Errorf("nil tracker filtered replicas: %v", got)
	}
}

func TestAllowedReplicasFilters(t *testing.T) {
	h, clock := newTestTracker(1, time.Minute)
	h.ReportFailure("bad:1")
	reps := []string{"good:1", "bad:1", "good:2"}
	got := allowedReplicas(h, reps, func(s string) string { return s })
	if len(got) != 2 || got[0] != "good:1" || got[1] != "good:2" {
		t.Errorf("filtered = %v", got)
	}
	// All circuits open -> one probe, to the depot whose cooldown ends
	// soonest.
	clock.advance(time.Second)
	h.ReportFailure("good:2")
	clock.advance(time.Second)
	h.ReportFailure("good:1")
	if got := allowedReplicas(h, reps, func(s string) string { return s }); len(got) != 1 || got[0] != "bad:1" {
		t.Errorf("all-open filter returned %v, want the probe [bad:1]", got)
	}
	// A failed probe re-opens its circuit for a full cooldown, so the next
	// probe goes elsewhere.
	h.ReportFailure("bad:1")
	if got := allowedReplicas(h, reps, func(s string) string { return s }); len(got) != 1 || got[0] != "good:2" {
		t.Errorf("after a failed probe the filter returned %v, want [good:2]", got)
	}
}
