package lonviz

import (
	"context"
	"testing"
	"time"

	"lonviz/internal/experiments"
)

// TestEdgeFleetEndToEnd is the acceptance test for the cooperative edge
// cache tier: 50 concurrent clients, each with its own private cache,
// browse the same database twice over identical cursor scripts — first
// isolated (every miss crosses the WAN per client), then sharing one
// edge cache. Sharing must lift the fleet-aggregate WAN-free hit rate
// past 0.75 while the isolated baseline stays in the historical band
// below the bar, and the edge's fill history must show each view set
// crossing the WAN at most once for the entire fleet.
func TestEdgeFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet run")
	}
	checkGoroutines(t)
	cfg := experiments.DefaultConfig()
	// The hit-rate comparison is about access classes, not transfer speed:
	// a fatter WAN pipe keeps 50 concurrent clients from serializing on
	// the shared token bucket without changing what counts as a WAN fetch.
	cfg.WAN.Bandwidth = 32 << 20
	cfg.Accesses = 24
	cfg.ThinkTime = 10 * time.Millisecond

	const clients = 50
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	run, err := experiments.EdgeFleetExperiment(ctx, cfg, 200, experiments.EdgeFleetOptions{
		Clients: clients,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Both legs must have actually browsed.
	wantAccesses := clients * cfg.Accesses
	if got := run.Isolated.Accesses(); got != wantAccesses {
		t.Errorf("isolated leg completed %d/%d accesses", got, wantAccesses)
	}
	if got := run.Shared.Accesses(); got != wantAccesses {
		t.Errorf("shared leg completed %d/%d accesses", got, wantAccesses)
	}

	shared, isolated := run.SharedHitRate(), run.IsolatedHitRate()
	t.Logf("hit rate: shared=%.3f isolated=%.3f classes=%v edge=%+v",
		shared, isolated, run.Shared.ClassCounts(), run.EdgeStats)
	if shared < 0.75 {
		t.Errorf("shared-edge fleet hit rate %.3f, want >= 0.75", shared)
	}
	// The isolated baseline sits in the single-cache band (0.61 at this
	// configuration with path-first prefetch; a full-length 58-access
	// session reads about 0.78) — in particular it must not itself clear
	// the shared bar, or the comparison is vacuous.
	if isolated < 0.30 || isolated > 0.72 {
		t.Errorf("isolated baseline hit rate %.3f outside the expected [0.30, 0.72] band", isolated)
	}
	if shared <= isolated {
		t.Errorf("sharing did not help: shared=%.3f isolated=%.3f", shared, isolated)
	}

	// WAN-once: the whole fleet's demand reached the depots as at most one
	// fetch per view set (no refills means no extent crossed twice), and
	// no agent bypassed the edge to the WAN on its own.
	numSets := len(cfg.ParamsAt(experiments.ScaleRes(200)).AllViewSets())
	if run.EdgeStats.FilledSets > numSets {
		t.Errorf("edge filled %d distinct view sets, database has %d", run.EdgeStats.FilledSets, numSets)
	}
	if run.EdgeStats.Refills != 0 {
		t.Errorf("edge refilled %d extents; every extent must cross the WAN at most once", run.EdgeStats.Refills)
	}
	if run.SharedAgents.WANFetches != 0 {
		t.Errorf("shared leg agents made %d direct WAN fetches, want 0 (edge was up throughout)", run.SharedAgents.WANFetches)
	}
	if run.SharedAgents.EdgeFetches == 0 {
		t.Error("shared leg recorded no edge-classed fetches")
	}
	if run.EdgeStats.Hits == 0 {
		t.Error("edge cache recorded no hits")
	}
}
