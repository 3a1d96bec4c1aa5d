package lonviz

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"lonviz/internal/edge"
	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/obs"
	"lonviz/internal/obs/fleet"
	"lonviz/internal/obs/slo"
	"lonviz/internal/steward"
)

// fleetMemberDoc mirrors the member rows of /debug/fleet.
type fleetMemberDoc struct {
	Addr        string `json:"addr"`
	Kind        string `json:"kind"`
	ServiceAddr string `json:"service_addr,omitempty"`
	State       string `json:"state"`
	Err         string `json:"err,omitempty"`
}

type fleetDoc struct {
	Self       string             `json:"self"`
	Members    []fleetMemberDoc   `json:"members"`
	Aggregates map[string]float64 `json:"aggregates"`
	Firing     int                `json:"firing"`
	Alerts     []slo.Alert        `json:"alerts"`
}

// fleetNode is one process under the scraper's watch: a service plus the
// observability stack its /metrics ride on.
type fleetNode struct {
	reg   *obs.Registry
	stack *slo.Stack
}

func startFleetNode(t *testing.T, addr string) *fleetNode {
	t.Helper()
	n := &fleetNode{reg: obs.NewRegistry()}
	stack, err := slo.Start(slo.Options{
		Addr:           addr,
		Registry:       n.reg,
		Tracer:         obs.NewTracer(256),
		Logger:         obs.NewLogger(io.Discard, 64),
		SampleInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("node stack on %q: %v", addr, err)
	}
	n.stack = stack
	stack.MarkReady()
	return n
}

// TestFleetFederationEndToEnd is the acceptance test for the fleet
// scraper: an L-Bone registry, three depots, an edge cache, and a steward
// running the federation layer. Killing a depot mid-run must flip its row
// in the health matrix to down, drop the fleet replica-coverage aggregate
// below the replication floor so the fleet SLO fires critical, and
// degrade the steward's own /healthz through the federated health chain.
// Restarting the depot on the same addresses clears all of it. Every
// stage is observed from the operator surface: /debug/fleet, the fleet.*
// series in the steward's /debug/tsdb, and /healthz. Teardown leaks no
// goroutines.
func TestFleetFederationEndToEnd(t *testing.T) {
	ctx := context.Background()
	// Registered first, so it runs after every other cleanup.
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline+10 {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak: %d now vs %d at start\n%s",
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})

	// The L-Bone registry the fleet sweep discovers members through.
	lb := lbone.NewServer()
	lbAddr, err := lb.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.Close() })
	lbClient := &lbone.Client{BaseURL: "http://" + lbAddr}

	// Three depots, each with its own metrics stack registered in L-Bone.
	type depotProc struct {
		depot   *ibp.Depot
		srv     *ibp.Server
		addr    string
		node    *fleetNode
		metrics string
	}
	var depots []*depotProc
	for i := 0; i < 3; i++ {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 24, MaxLease: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv := ibp.NewServer(d)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := &depotProc{depot: d, srv: srv, addr: addr, node: startFleetNode(t, "127.0.0.1:0")}
		p.metrics = p.node.stack.Addr()
		t.Cleanup(func() { p.srv.Close(); p.node.stack.Close(context.Background()) })
		if err := lbClient.Register(ctx, lbone.DepotRecord{
			Addr: addr, Kind: lbone.KindDepot, Capacity: 1 << 24, Free: 1 << 24, MetricsAddr: p.metrics,
		}); err != nil {
			t.Fatal(err)
		}
		depots = append(depots, p)
	}

	// An edge cache with its own stack, announced as kind=edge.
	edgeNode := startFleetNode(t, "127.0.0.1:0")
	cache, err := edge.NewCache(edge.CacheConfig{CapacityBytes: 1 << 20, Obs: edgeNode.reg})
	if err != nil {
		t.Fatal(err)
	}
	edgeSrv := edge.NewServer(cache)
	edgeSrv.Obs = edgeNode.reg
	edgeAddr, err := edgeSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edgeSrv.Close(); edgeNode.stack.Close(context.Background()) })
	if err := lbClient.Register(ctx, lbone.DepotRecord{
		Addr: edgeAddr, Kind: lbone.KindEdge, MetricsAddr: edgeNode.stack.Addr(),
	}); err != nil {
		t.Fatal(err)
	}

	// A steward-managed object replicated on depots 0 and 1: the coverage
	// the fleet SLO guards.
	payload := make([]byte, 4*1024)
	rand.New(rand.NewSource(11)).Read(payload)
	storeReplica := func(addr string) exnode.Replica {
		cl := &ibp.Client{Addr: addr}
		caps, err := cl.Allocate(ctx, int64(len(payload)), time.Hour, ibp.Stable)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Store(ctx, caps.Write, 0, payload); err != nil {
			t.Fatal(err)
		}
		return exnode.Replica{Depot: addr, ReadCap: caps.Read, ManageCap: caps.Manage}
	}
	ex := &exnode.ExNode{
		Name:   "fleet-e2e-obj",
		Length: int64(len(payload)),
		Extents: []exnode.Extent{{
			Offset:   0,
			Length:   int64(len(payload)),
			Checksum: exnode.ChecksumOf(payload),
			Replicas: []exnode.Replica{storeReplica(depots[0].addr), storeReplica(depots[1].addr)},
		}},
	}

	stewReg := obs.NewRegistry()
	stw := steward.New(steward.Config{
		ReplicationTarget: 2,
		ScanInterval:      time.Hour,
		Obs:               stewReg,
	})
	if err := stw.Adopt("fleet-e2e-obj", ex); err != nil {
		t.Fatal(err)
	}

	// The federation layer, wired exactly as lfsteward -fleet-scrape does:
	// the stack's one engine runs the fleet rules, and the fleet, built
	// once the stack has bound, publishes on the stack's registry.
	stack, err := slo.Start(slo.Options{
		Addr:           "127.0.0.1:0",
		Registry:       stewReg,
		Tracer:         obs.NewTracer(256),
		Logger:         obs.NewLogger(io.Discard, 64),
		SampleInterval: 50 * time.Millisecond,
		Rules:          slo.FleetDefaultRules(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close(context.Background()) })
	stack.MarkReady()
	fl := fleet.New(fleet.Config{
		Self:        stack.Addr(),
		LBone:       lbClient,
		Interval:    150 * time.Millisecond,
		PeerTimeout: 2 * time.Second,
		Coverage:    stw.ReplicaCoverage,
		Registry:    stewReg,
	})
	fl.AddStaticPeer(stack.Addr(), lbone.KindSteward)
	stack.Server.Handle("/debug/fleet", fl.Handler(stack.Engine))
	fleetStop := make(chan struct{})
	t.Cleanup(func() { close(fleetStop) })
	go fl.Run(fleetStop)

	base := "http://" + stack.Addr()
	fetchFleet := func() fleetDoc {
		_, body := sloHTTPGet(t, base+"/debug/fleet")
		var doc fleetDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/debug/fleet unparseable: %v\n%s", err, body)
		}
		return doc
	}
	memberState := func(doc fleetDoc, metricsAddr string) (fleetMemberDoc, bool) {
		for _, m := range doc.Members {
			if m.Addr == metricsAddr {
				return m, true
			}
		}
		return fleetMemberDoc{}, false
	}
	waitFor := func(what string, timeout time.Duration, ok func(fleetDoc) bool) fleetDoc {
		deadline := time.Now().Add(timeout)
		for {
			doc := fetchFleet()
			if ok(doc) {
				return doc
			}
			if time.Now().After(deadline) {
				raw, _ := json.MarshalIndent(doc, "", "  ")
				t.Fatalf("timed out waiting for %s\n/debug/fleet: %s", what, raw)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Stage 1: the full fleet converges — three depots, the edge, and the
	// steward itself, all up, with full replica coverage.
	doc := waitFor("whole fleet up", 15*time.Second, func(doc fleetDoc) bool {
		if len(doc.Members) < 5 {
			return false
		}
		for _, m := range doc.Members {
			if m.State != fleet.StateUp {
				return false
			}
		}
		return doc.Aggregates["replica.coverage.min"] == 2
	})
	if doc.Self != stack.Addr() {
		t.Fatalf("self = %q, want %q", doc.Self, stack.Addr())
	}
	kinds := map[string]int{}
	for _, m := range doc.Members {
		kinds[m.Kind]++
	}
	if kinds[lbone.KindDepot] != 3 || kinds[lbone.KindEdge] != 1 || kinds[lbone.KindSteward] != 1 {
		t.Fatalf("fleet kinds = %v, want 3 depots + 1 edge + 1 steward", kinds)
	}
	if m, _ := memberState(doc, depots[0].metrics); m.ServiceAddr != depots[0].addr {
		t.Fatalf("depot 0 row = %+v, want service addr %s", m, depots[0].addr)
	}
	if code, body := sloHTTPGet(t, base+"/healthz"); code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz on the healthy fleet = %d %q", code, body)
	}

	// The text rendering of the matrix works against the live fleet too.
	_, text := sloHTTPGet(t, base+"/debug/fleet?format=text")
	if !strings.Contains(string(text), "NODE") || !strings.Contains(string(text), depots[0].metrics) {
		t.Fatalf("text matrix missing depot row:\n%s", text)
	}

	// Stage 2: kill depot 0 — service and metrics stack both. The matrix
	// must mark it down and the replica-coverage SLO must fire critical.
	depots[0].srv.Close()
	depots[0].node.stack.Close(context.Background())
	doc = waitFor("depot 0 down + coverage alert firing", 15*time.Second, func(doc fleetDoc) bool {
		m, ok := memberState(doc, depots[0].metrics)
		if !ok || m.State != fleet.StateDown {
			return false
		}
		for _, a := range doc.Alerts {
			if a.Rule == "fleet-replica-coverage" && a.State == slo.StateFiring {
				return true
			}
		}
		return false
	})
	if got := doc.Aggregates["replica.coverage.min"]; got != 1 {
		t.Fatalf("replica.coverage.min during outage = %v, want 1", got)
	}
	for _, a := range doc.Alerts {
		if a.Rule != "fleet-replica-coverage" || a.State != slo.StateFiring {
			continue
		}
		if a.Severity != slo.SeverityCritical {
			t.Fatalf("coverage alert severity = %q, want critical", a.Severity)
		}
		if a.Scope != slo.ScopeFleet {
			t.Fatalf("coverage alert scope = %q, want fleet", a.Scope)
		}
	}

	// The steward's own /healthz degrades through its one engine and
	// names the fleet rule.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := sloHTTPGet(t, base+"/healthz")
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(string(body), "fleet-replica-coverage") {
				t.Fatalf("/healthz reason does not name the fleet rule:\n%s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz stayed %d during fleet-critical alert", code)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Stage 3: restart the depot on the same addresses (the data survives
	// in the depot object) and re-announce it. The matrix recovers, the
	// alert resolves after its clear window, and /healthz returns to 200.
	restarted := ibp.NewServer(depots[0].depot)
	if _, err := restarted.ListenAndServe(depots[0].addr); err != nil {
		t.Fatalf("restarting depot 0 on %s: %v", depots[0].addr, err)
	}
	t.Cleanup(func() { restarted.Close() })
	depots[0].node = startFleetNode(t, depots[0].metrics)
	t.Cleanup(func() { depots[0].node.stack.Close(context.Background()) })
	if err := lbClient.Register(ctx, lbone.DepotRecord{
		Addr: depots[0].addr, Kind: lbone.KindDepot, Capacity: 1 << 24, Free: 1 << 24,
		MetricsAddr: depots[0].metrics,
	}); err != nil {
		t.Fatal(err)
	}

	waitFor("recovery: depot up, alert resolved", 20*time.Second, func(doc fleetDoc) bool {
		m, ok := memberState(doc, depots[0].metrics)
		if !ok || m.State != fleet.StateUp {
			return false
		}
		return doc.Firing == 0 && doc.Aggregates["replica.coverage.min"] == 2
	})
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, body := sloHTTPGet(t, base+"/healthz")
		if code == http.StatusOK {
			if strings.TrimSpace(string(body)) != "ok" {
				t.Fatalf("/healthz recovery body = %q, want ok", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz stayed %d after fleet recovery:\n%s", code, body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Stage 4: the steward's TSDB retained the outage — the coverage-min
	// series has history that dips to 1 and returns to 2.
	q := url.Values{"name": {obs.MFleetCoverageMin}, "since": {"120s"}, "agg": {"raw"}}
	_, body := sloHTTPGet(t, base+"/debug/tsdb?"+q.Encode())
	var rawResp struct {
		Points []struct {
			V float64 `json:"v"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &rawResp); err != nil {
		t.Fatalf("/debug/tsdb unparseable: %v\n%s", err, body)
	}
	if len(rawResp.Points) < 2 {
		t.Fatalf("steward TSDB has %d coverage points, want history", len(rawResp.Points))
	}
	sawDip, sawFull := false, false
	for _, p := range rawResp.Points {
		if p.V == 1 {
			sawDip = true
		}
		if p.V == 2 {
			sawFull = true
		}
	}
	if !sawDip || !sawFull {
		t.Fatalf("coverage series dip=%v full=%v, want the outage and the recovery retained\n%s",
			sawDip, sawFull, body)
	}

	// The fleet's own scrape accounting landed in the steward's /metrics.
	_, body = sloHTTPGet(t, base+"/metrics")
	var metricsDoc map[string]any
	if err := json.Unmarshal(body, &metricsDoc); err != nil {
		t.Fatalf("/metrics unparseable: %v", err)
	}
	if v, ok := metricsDoc[obs.MFleetScrapes].(float64); !ok || v < 2 {
		t.Fatalf("%s = %v, want >= 2", obs.MFleetScrapes, metricsDoc[obs.MFleetScrapes])
	}
	foundMemberGauge := false
	for name := range metricsDoc {
		if strings.HasPrefix(name, obs.MFleetMembers+"{") {
			foundMemberGauge = true
		}
	}
	if !foundMemberGauge {
		t.Fatalf("no %s{state=...} gauge on /metrics", obs.MFleetMembers)
	}
}
