package lonviz

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/netsim"
	"lonviz/internal/obs"
)

// TestEndToEndTraceAcrossProcesses is the tentpole acceptance test: one
// lfbrowse-style frame fetch runs through client agent -> LoRS -> two
// depots while one depot corrupts every payload, with trace propagation
// on. Each "process" keeps its own tracer (served over HTTP like
// -metrics-addr would), and the collector must reassemble one tree in
// which client-side and depot-side spans share a single trace ID — with
// the failover retry visible as a failed lors.attempt beside the
// successful one.
func TestEndToEndTraceAcrossProcesses(t *testing.T) {
	checkGoroutines(t)
	obs.SetPropagation(true)
	defer obs.SetPropagation(false)

	params := lightfield.ScaledParams(45, 2, 6) // 2x4 sets

	// Two depots, each with a private tracer served the way a real depotd
	// serves -metrics-addr.
	type depotProc struct {
		addr     string
		tracer   *obs.Tracer
		endpoint string
	}
	var depots []depotProc
	for i := 0; i < 2; i++ {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 24, MaxLease: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv := ibp.NewServer(d)
		tr := obs.NewTracer(256)
		srv.Tracer = tr
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		hs := httptest.NewServer(obs.NewMux(obs.ServeOptions{Registry: obs.NewRegistry(), Tracer: tr}))
		t.Cleanup(hs.Close)
		depots = append(depots, depotProc{addr: addr, tracer: tr, endpoint: hs.URL})
	}

	// The DVS is a third process with its own tracer.
	dvsServer := dvs.NewServer("")
	dvsTracer := obs.NewTracer(256)
	dvsServer.Tracer = dvsTracer
	dvsAddr, err := dvsServer.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dvsServer.Close() })
	dvsHTTP := httptest.NewServer(obs.NewMux(obs.ServeOptions{Registry: obs.NewRegistry(), Tracer: dvsTracer}))
	t.Cleanup(dvsHTTP.Close)
	dvsClient := &dvs.Client{Addr: dvsAddr}

	// Publish with Replicas=2 so every extent lives on both depots and a
	// failed attempt always has somewhere to fail over to.
	gen, err := lightfield.NewProceduralGenerator(params, 77)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:  "neghip",
		Gen:      gen,
		Depots:   []string{depots[0].addr, depots[1].addr},
		DVS:      dvsClient,
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sa.Close() })
	if _, err := sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The fault: depot 0 corrupts every payload in transit, so any attempt
	// against it fails the checksum and fails over to depot 1.
	fd := netsim.NewFaultDialer(nil, 4244)
	fd.SetFault(depots[0].addr, netsim.FaultProfile{CorruptProb: 1})

	clientTracer := obs.NewTracer(1024)
	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:     "neghip",
		Params:      params,
		DVS:         dvsClient,
		Dialer:      fd,
		CacheBytes:  1 << 22,
		Retries:     4,
		Parallelism: 1,
		Tracer:      clientTracer,
		Rand:        rand.New(rand.NewSource(99)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	// Browse until some fetch's trace contains a failed attempt: with a
	// 100%-corrupting replica holding half the stripes, the first fetch
	// that touches depot 0 produces one.
	var traceID uint64
	for _, id := range params.AllViewSets() {
		if _, _, err := ca.GetViewSet(context.Background(), id); err != nil {
			t.Fatalf("GetViewSet(%v): %v", id, err)
		}
		for _, s := range clientTracer.Completed() {
			if s.Name == obs.SpanLorsAttempt && s.Attrs["err"] != "" {
				traceID = s.TraceID
			}
		}
		if traceID != 0 {
			break
		}
	}
	if traceID == 0 {
		t.Fatal("no fetch recorded a failed lors.attempt despite a fully corrupting depot")
	}

	// The path users take: a viewer's move streams the frame while it
	// downloads. It must leave the same merged tree as the buffered call.
	viewer, err := agent.NewViewer(params, ca)
	if err != nil {
		t.Fatal(err)
	}
	var moveTrace uint64
	for _, id := range params.AllViewSets() {
		rec, err := viewer.MoveTo(context.Background(), params.SetCenterAngles(id))
		if err != nil {
			t.Fatalf("MoveTo(%v): %v", id, err)
		}
		if rec.Class != agent.AccessWAN {
			continue // fetched by the loop above
		}
		for _, s := range clientTracer.Completed() {
			if s.Name == obs.SpanLorsAttempt && s.Attrs["err"] != "" && s.TraceID != traceID {
				moveTrace = s.TraceID
			}
		}
		if moveTrace != 0 {
			break
		}
	}
	if moveTrace == 0 {
		t.Fatal("no move's miss recorded a failed lors.attempt despite a fully corrupting depot")
	}

	peers := []string{depots[0].endpoint, depots[1].endpoint, dvsHTTP.URL}
	assertMergedTrace(t, traceID, clientTracer, peers)
	assertMergedTrace(t, moveTrace, clientTracer, peers)
}

// assertMergedTrace pulls the remote halves of one trace exactly as
// `lfbrowse -trace-peers` does and checks the reassembled end-to-end tree.
func assertMergedTrace(t *testing.T, traceID uint64, clientTracer *obs.Tracer, peers []string) {
	t.Helper()
	col := &obs.Collector{Local: clientTracer, Peers: peers}
	cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	spans, errs := col.Collect(cctx, traceID)
	if len(errs) != 0 {
		t.Fatalf("collect errors: %v", errs)
	}
	trees := obs.BuildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("merged %d trees for one trace ID, want 1", len(trees))
	}
	tree := trees[0]
	if tree.TraceID != traceID {
		t.Fatalf("tree trace = %x, want %x", tree.TraceID, traceID)
	}

	var (
		haveRoot, haveExtent                   bool
		failedAttempts, okAttempts, depotServe int
		dvsServe                               int
		sources                                = map[string]bool{}
	)
	for _, s := range tree.Spans {
		if s.TraceID != traceID {
			t.Fatalf("span %q carries trace %x, want %x", s.Name, s.TraceID, traceID)
		}
		sources[s.Source] = true
		switch s.Name {
		case obs.SpanGetViewSet:
			haveRoot = true
		case obs.SpanLorsExtent:
			haveExtent = true
		case obs.SpanLorsAttempt:
			if s.Attrs["err"] != "" {
				failedAttempts++
			} else {
				okAttempts++
			}
		case obs.SpanIBPServe:
			depotServe++
			if !s.Remote {
				t.Errorf("depot serve span not remote-parented: %+v", s)
			}
		case obs.SpanDVSServe:
			dvsServe++
		}
	}
	if !haveRoot || !haveExtent {
		t.Errorf("client-side spans missing: root=%v extent=%v", haveRoot, haveExtent)
	}
	if failedAttempts == 0 {
		t.Error("merged tree shows no failed attempt — the failover retry is invisible")
	}
	if okAttempts == 0 {
		t.Error("merged tree shows no successful attempt")
	}
	if depotServe == 0 {
		t.Error("merged tree has no depot-side ibp.serve spans")
	}
	if dvsServe == 0 {
		t.Error("merged tree has no DVS-side serve span")
	}
	if !sources["local"] {
		t.Error("no client-side (local) spans in the merge")
	}
	remoteSources := 0
	for src := range sources {
		if src != "local" && src != "" {
			remoteSources++
		}
	}
	if remoteSources == 0 {
		t.Error("no remote-sourced spans in the merge")
	}

	// The rendered tree must interleave both sides under one header.
	var sb strings.Builder
	tree.Render(&sb)
	out := sb.String()
	for _, want := range []string{obs.SpanGetViewSet, obs.SpanIBPServe, obs.SpanLorsAttempt, "@http://"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, out)
		}
	}
}
