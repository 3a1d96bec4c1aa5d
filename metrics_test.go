package lonviz

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/edge"
	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
	"lonviz/internal/obs/fleet"
	"lonviz/internal/steward"
)

// TestNoSnapshotKeyShadowsARegisteredMetric: the five components that
// count in their own Stats — client agent, server agent, edge cache,
// steward, hot-set replicator — each work against a fresh registry, then
// publish through RegisterMetrics. No key they publish may equal a metric
// they registered directly (Registry.Snapshot would let one silently
// overwrite the other), and every names.go name of their counts must be
// among the keys. The fleet scraper shares the steward's registry, as
// under lfsteward -fleet-scrape: its "fleet" snapshot may shadow neither
// its own accounting nor the steward's.
func TestNoSnapshotKeyShadowsARegisteredMetric(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	p := lightfield.ScaledParams(45, 2, 12)

	var depots []string
	for i := 0; i < 2; i++ {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 64 << 20, MaxLease: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv := ibp.NewServer(d)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		depots = append(depots, addr)
	}
	dvsServer := dvs.NewServer("")
	dvsAddr, err := dvsServer.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dvsServer.Close() })
	gen, err := lightfield.NewProceduralGenerator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := p.AllViewSets()[0]

	type component struct {
		name     string
		reg      *obs.Registry // what it recorded into while it worked
		register func(*obs.Registry)
		names    []string // names.go names its snapshot must publish
	}
	var comps []component

	// Server agent: publish the database, then shed one request whose
	// deadline budget is already spent.
	saReg := obs.NewRegistry()
	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset: "neghip", Gen: gen, Depots: depots[:1], DVS: &dvs.Client{Addr: dvsAddr}, Obs: saReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sa.Close() })
	published, err := sa.PrecomputeAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	spent, spend := context.WithCancel(ctx)
	spend()
	if _, err := sa.Request(spent, id); !errors.Is(err, ibp.ErrBusy) {
		t.Fatalf("request with a spent budget: %v, want ibp.ErrBusy", err)
	}
	comps = append(comps, component{"server agent", saReg, sa.RegisterMetrics, []string{
		obs.Label(obs.MAgentRenderShed, "reason", "evicted"),
		obs.Label(obs.MAgentRenderShed, "reason", "deadline"),
	}})

	// Client agent: a miss, a hit, the prefetches of a move, and the whole
	// database staged onto the second depot.
	caReg := obs.NewRegistry()
	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset: "neghip", Params: p, DVS: &dvs.Client{Addr: dvsAddr},
		LANDepots: depots[1:], Prefetch: true, Obs: caReg, Tracer: obs.NewTracer(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)
	for i := 0; i < 2; i++ {
		if _, _, err := ca.GetViewSet(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	ca.OnUserMove(p.SetCenterAngles(id))
	staged, err := ca.StartPrestaging(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-staged
	if st := ca.Stats(); st.Hits == 0 || st.Misses == 0 || st.Staged == 0 {
		t.Fatalf("client agent not exercised: %+v", st)
	}
	comps = append(comps, component{"client agent", caReg, ca.RegisterMetrics, []string{
		obs.MAgentHits, obs.MAgentMisses, obs.MAgentHitRate, obs.MAgentPrefetches,
		obs.MAgentPrefetchUseful, obs.MAgentStaged, obs.MAgentStageErrors, obs.MAgentCoalesced,
	}})

	// Edge cache: one extent read twice through it, a fill then a hit.
	edgeReg := obs.NewRegistry()
	cache, err := edge.NewCache(edge.CacheConfig{CapacityBytes: 8 << 20, Obs: edgeReg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	ex, err := exnode.Unmarshal(published[id])
	if err != nil {
		t.Fatal(err)
	}
	ext := ex.Extents[0]
	rep := ext.Replicas[0]
	for i := 0; i < 2; i++ {
		cp := edge.Cap{Hint: id.String(), OriginDepot: rep.Depot, OriginCap: rep.ReadCap}
		if _, _, err := cache.Load(ctx, cp, rep.AllocOffset, ext.Length); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Hits != 1 || st.Fills != 1 {
		t.Fatalf("edge cache not exercised: %+v", st)
	}
	comps = append(comps, component{"edge cache", edgeReg, cache.RegisterMetrics, []string{
		obs.MEdgeHits, obs.MEdgeMisses, obs.MEdgeFills, obs.MEdgeFillErrors,
	}})

	// Steward: a cycle over the published layouts, then an alert-triggered
	// audit of the depot holding them.
	stReg := obs.NewRegistry()
	stw := steward.New(steward.Config{Obs: stReg})
	for vs, doc := range published {
		ex, err := exnode.Unmarshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := stw.Adopt(vs.String(), ex); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stw.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := stw.AuditDepot(ctx, depots[0]); err != nil {
		t.Fatal(err)
	}
	comps = append(comps, component{"steward", stReg, stw.RegisterMetrics, []string{
		obs.MStewardCycles, obs.MStewardRenewals, obs.MStewardRepairs,
		obs.MStewardPruned, obs.MStewardExtentsLost, obs.MStewardAlertAudits,
	}})

	// Fleet scraper: one pass, on the steward's registry, over a peer that
	// is down. Its fold is the snapshot New registers as "fleet".
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadPeer := gone.Addr().String()
	gone.Close()
	fl := fleet.New(fleet.Config{Peers: []string{deadPeer}, Coverage: stw.ReplicaCoverage, Registry: stReg})
	fl.Scrape(ctx)
	comps = append(comps, component{"fleet scraper", stReg, func(pub *obs.Registry) {
		stw.RegisterMetrics(pub)
		pub.RegisterSnapshot("fleet", fl.Aggregates)
	}, []string{
		obs.MFleetShed, obs.MFleetServed, obs.MFleetCoverageMin,
		obs.Label(obs.MFleetScrapeErrors, "node", deadPeer),
	}})

	// Hot-set replicator: one warm that lands, one that fails. It records
	// into no registry at all: its counts live in Stats alone.
	hs, err := steward.NewHotSetReplicator(steward.HotSetConfig{
		Feed: func(int) []edge.HotItem {
			return []edge.HotItem{{Hint: id.String(), Count: 9}, {Hint: "gone", Count: 9}}
		},
		Warm: func(_ context.Context, hint string) error {
			if hint == "gone" {
				return errors.New("origin down")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs.RunOnce(ctx)
	comps = append(comps, component{"hot-set replicator", obs.NewRegistry(), hs.RegisterMetrics, []string{
		obs.MStewardHotsetWarms, obs.MStewardHotsetWarmErrors,
	}})

	for _, c := range comps {
		pub := obs.NewRegistry()
		c.register(pub)
		keys := pub.Snapshot()
		for _, name := range c.reg.Names() {
			if _, ok := keys[name]; ok {
				t.Errorf("%s: published key %s shadows the metric it registered under that name", c.name, name)
			}
		}
		for _, name := range c.names {
			if _, ok := keys[name]; !ok {
				t.Errorf("%s: RegisterMetrics does not publish %s", c.name, name)
			}
		}
	}
}
