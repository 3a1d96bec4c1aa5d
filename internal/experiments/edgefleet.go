// Edge-fleet experiment: the cooperative-cache claim measured head to
// head. Two legs run against one case-2 (WAN streaming) deployment —
// first a fleet of clients each with an isolated private cache (the
// pre-edge baseline), then the same fleet sharing one edge cache tier.
// The isolated leg's hit rate is bounded by each client's own history;
// the shared leg adds every neighbor's history, so the fleet-aggregate
// hit rate climbs and each view set crosses the WAN at most once.

package experiments

import (
	"context"
	"fmt"
	"sync"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/edge"
	"lonviz/internal/obs"
	"lonviz/internal/session"
)

// edgeCacheBytes sizes the edge.
const edgeCacheBytes = 64 << 20

// EdgeFleetOptions shapes one shared-vs-isolated comparison.
type EdgeFleetOptions struct {
	// Clients is the fleet size (default 10).
	Clients int
}

// EdgeFleetRun is the comparison outcome.
type EdgeFleetRun struct {
	Clients  int
	Accesses int // per client
	// Shared ran through the edge tier; Isolated is the per-client-cache
	// baseline.
	Shared, Isolated *session.FleetResult
	// SharedAgents/IsolatedAgents sum every client agent's accounting for
	// the corresponding leg.
	SharedAgents, IsolatedAgents agent.ClientAgentStats
	// EdgeStats is the edge's final accounting.
	EdgeStats edge.CacheStats
}

// SharedHitRate is the shared leg's fleet-aggregate WAN-free rate. Every
// access the edge tier served is edge-classed at the agents even when the
// edge itself had to fill over the WAN, so the raw cooperative rate would
// read 1.0 whenever the edge is up. Each distinct view set the edge
// filled crossed the WAN exactly once for the whole fleet; charging one
// access per filled set yields a figure comparable with the isolated
// leg's local hit rate (a fleet of one would score exactly its private
// cache rate).
func (r *EdgeFleetRun) SharedHitRate() float64 {
	rate := r.Shared.CooperativeHitRate()
	if total := r.Shared.Accesses(); total > 0 {
		rate -= float64(r.EdgeStats.FilledSets) / float64(total)
	}
	if rate < 0 {
		rate = 0
	}
	return rate
}

// IsolatedHitRate is the baseline leg's local-cache hit rate.
func (r *EdgeFleetRun) IsolatedHitRate() float64 { return r.Isolated.HitRate() }

// sumAgentStats folds per-client agent accounting into one fleet total.
func sumAgentStats(agents []*agent.ClientAgent) agent.ClientAgentStats {
	var out agent.ClientAgentStats
	for _, ca := range agents {
		st := ca.Stats()
		out.Hits += st.Hits
		out.LANFetches += st.LANFetches
		out.WANFetches += st.WANFetches
		out.EdgeFetches += st.EdgeFetches
		out.Prefetches += st.Prefetches
		out.Staged += st.Staged
		out.StageErrors += st.StageErrors
		out.ReplicaTries += st.ReplicaTries
		out.FailedAttempts += st.FailedAttempts
		out.ChecksumErrors += st.ChecksumErrors
		out.Coalesced += st.Coalesced
		out.BusyRejections += st.BusyRejections
		out.BudgetExhausted += st.BudgetExhausted
	}
	return out
}

// edgeFleetLeg runs one fleet with a fresh client agent (and private
// cache) per client, pointed at edgeAddr when non-empty.
func edgeFleetLeg(ctx context.Context, d *Deployment, clients int, edgeAddr string) (*session.FleetResult, agent.ClientAgentStats, error) {
	var mu sync.Mutex
	var agents []*agent.ClientAgent
	defer func() {
		for _, ca := range agents {
			ca.Close()
		}
	}()
	res, err := session.RunFleet(ctx, session.FleetOptions{
		Params:    d.Params,
		Clients:   clients,
		Accesses:  d.Cfg.Accesses,
		Seed:      d.Cfg.Seed,
		ThinkTime: d.Cfg.ThinkTime,
		NewViewer: func(i int) (*agent.Viewer, error) {
			ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
				Dataset:    "neghip",
				Params:     d.Params,
				DVS:        &dvs.Client{Addr: d.DVSAddr, Dialer: d.Dialer},
				Dialer:     d.Dialer,
				CacheBytes: d.Cfg.CacheBytes,
				Prefetch:   !d.Cfg.NoPrefetch,
				EdgeAddr:   edgeAddr,
			})
			if err != nil {
				return nil, err
			}
			mu.Lock()
			agents = append(agents, ca)
			mu.Unlock()
			v, err := agent.NewViewer(d.Params, ca)
			if err != nil {
				return nil, err
			}
			v.MaxDecoded = 1
			return v, nil
		},
	})
	if err != nil {
		return nil, agent.ClientAgentStats{}, err
	}
	return res, sumAgentStats(agents), nil
}

// EdgeFleetExperiment deploys one case-2 system, runs the isolated
// baseline leg and then the shared-edge leg, and returns both. Client i
// browses with seed cfg.Seed+i in both legs, so the cursor paths — and
// hence the demand each leg must serve — are identical. Both legs prefetch
// by the agent's default, path-first prefetch, whatever cfg.PrefetchPolicy
// says, so the two differ in the edge tier only.
func EdgeFleetExperiment(ctx context.Context, cfg Config, paperRes int, opts EdgeFleetOptions) (*EdgeFleetRun, error) {
	if opts.Clients <= 0 {
		opts.Clients = 10
	}
	d, err := Deploy(ctx, cfg, ScaleRes(paperRes), Case2WAN)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	run := &EdgeFleetRun{Clients: opts.Clients, Accesses: cfg.Accesses}

	// Baseline first: every client on its own, no edge tier.
	run.Isolated, run.IsolatedAgents, err = edgeFleetLeg(ctx, d, opts.Clients, "")
	if err != nil {
		return nil, fmt.Errorf("experiments: isolated leg: %w", err)
	}

	// The edge's fills cross the deployment's shaped WAN (the dialer
	// carries the WAN routes to the server depots); clients reach the edge
	// itself at LAN cost.
	cache, err := edge.NewCache(edge.CacheConfig{
		CapacityBytes: edgeCacheBytes,
		Dialer:        d.Dialer,
		Obs:           obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	esrv := edge.NewServer(cache)
	edgeAddr, err := esrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer esrv.Close()
	d.Dialer.SetRoute(edgeAddr, cfg.LAN)

	run.Shared, run.SharedAgents, err = edgeFleetLeg(ctx, d, opts.Clients, edgeAddr)
	if err != nil {
		return nil, fmt.Errorf("experiments: shared leg: %w", err)
	}
	run.EdgeStats = cache.Stats()
	return run, nil
}
