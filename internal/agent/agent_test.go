package agent

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"lonviz/internal/dvs"
	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
)

// rig is a miniature deployment: depots, a DVS, and a server agent over a
// tiny procedural database.
type rig struct {
	params    lightfield.Params
	depots    []string
	lanDepot  string
	dvsServer *dvs.Server
	dvsClient *dvs.Client
	sa        *ServerAgent
	saAddr    string
}

func tinyParams() lightfield.Params { return lightfield.ScaledParams(45, 2, 6) } // 2x4 sets

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{params: tinyParams()}
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
		t.Cleanup(func() { srv.Close() })
		r.depots = append(r.depots, addr)
	}
	// LAN depot for staging tests.
	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 24, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	lanSrv := ibp.NewServer(d)
	r.lanDepot, err = lanSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lanSrv.Close() })

	r.dvsServer = dvs.NewServer("")
	dvsAddr, err := r.dvsServer.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.dvsServer.Close() })
	r.dvsClient = &dvs.Client{Addr: dvsAddr}

	gen, err := lightfield.NewProceduralGenerator(r.params, 77)
	if err != nil {
		t.Fatal(err)
	}
	r.sa, err = NewServerAgent(ServerAgentConfig{
		Dataset: "neghip",
		Gen:     gen,
		Depots:  r.depots,
		DVS:     r.dvsClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.sa.Close() })
	r.saAddr, err = r.sa.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) newClientAgent(t *testing.T, mutate func(*ClientAgentConfig)) *ClientAgent {
	t.Helper()
	cfg := ClientAgentConfig{
		Dataset:    "neghip",
		Params:     r.params,
		DVS:        r.dvsClient,
		CacheBytes: 1 << 22,
		LANDepots:  []string{r.lanDepot},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ca, err := NewClientAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)
	return ca
}

func TestServerAgentValidation(t *testing.T) {
	gen, _ := lightfield.NewProceduralGenerator(tinyParams(), 1)
	if _, err := NewServerAgent(ServerAgentConfig{Gen: gen, Depots: []string{"a:1"}}); err == nil {
		t.Error("missing dataset accepted")
	}
	if _, err := NewServerAgent(ServerAgentConfig{Dataset: "d", Depots: []string{"a:1"}}); err == nil {
		t.Error("missing generator accepted")
	}
	if _, err := NewServerAgent(ServerAgentConfig{Dataset: "d", Gen: gen}); err == nil {
		t.Error("missing depots accepted")
	}
}

func TestServerAgentRequestPublishes(t *testing.T) {
	r := newRig(t)
	id := lightfield.ViewSetID{R: 1, C: 2}
	xml, err := r.sa.Request(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	// DVS must now know the view set; the exNode must download to a
	// decodable frame.
	docs, err := r.dvsClient.Get(context.Background(), dvs.Key{Dataset: "neghip", ViewSet: id.String()})
	if err != nil || len(docs) == 0 {
		t.Fatalf("DVS after publish: %v (%d docs)", err, len(docs))
	}
	ca := r.newClientAgent(t, nil)
	frame, rep, err := ca.GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != AccessWAN {
		t.Errorf("first access class = %v", rep.Class)
	}
	vs, err := lightfield.DecodeViewSet(frame, r.params)
	if err != nil {
		t.Fatal(err)
	}
	if vs.ID != id {
		t.Errorf("decoded ID = %v", vs.ID)
	}
	_ = xml
}

func TestServerAgentRejectsBadID(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.Request(context.Background(), lightfield.ViewSetID{R: 99, C: 0}); err == nil {
		t.Error("out-of-range request accepted")
	}
}

func TestServerAgentConcurrentRequests(t *testing.T) {
	r := newRig(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, id := range r.params.AllViewSets() {
		wg.Add(1)
		go func(id lightfield.ViewSetID) {
			defer wg.Done()
			if _, err := r.sa.Request(context.Background(), id); err != nil {
				errs <- err
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := r.sa.Stats()
	if st.Rendered != int64(r.params.NumViewSets()) {
		t.Errorf("rendered = %d", st.Rendered)
	}
}

func TestServerAgentDuplicateRequestsCoalesce(t *testing.T) {
	r := newRig(t)
	id := lightfield.ViewSetID{R: 0, C: 0}
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.sa.Request(context.Background(), id); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// All five requests succeed; the generator may run once or a few
	// times depending on arrival, but never five times strictly — at
	// minimum the waiters map coalesces simultaneous arrivals.
	if st := r.sa.Stats(); st.Rendered > 3 {
		t.Errorf("rendered %d times for 5 concurrent identical requests", st.Rendered)
	}
}

func TestPrecomputeAllFillsDVS(t *testing.T) {
	r := newRig(t)
	out, err := r.sa.PrecomputeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != r.params.NumViewSets() {
		t.Fatalf("precomputed %d of %d", len(out), r.params.NumViewSets())
	}
	for _, id := range r.params.AllViewSets() {
		if _, err := r.dvsClient.Get(context.Background(), dvs.Key{Dataset: "neghip", ViewSet: id.String()}); err != nil {
			t.Errorf("DVS missing %v: %v", id, err)
		}
	}
}

func TestRemoteRenderProtocol(t *testing.T) {
	r := newRig(t)
	xml, err := RequestRemote(context.Background(), nil, r.saAddr, "neghip", "r01c03")
	if err != nil {
		t.Fatal(err)
	}
	if len(xml) == 0 {
		t.Fatal("empty exnode")
	}
	// Bad dataset and bad key produce errors, not hangs.
	if _, err := RequestRemote(context.Background(), nil, r.saAddr, "wrong", "r00c00"); err == nil {
		t.Error("wrong dataset accepted")
	}
	if _, err := RequestRemote(context.Background(), nil, r.saAddr, "neghip", "garbage"); err == nil {
		t.Error("garbage key accepted")
	}
}

func TestDVSOnDemandViaServerAgent(t *testing.T) {
	r := newRig(t)
	// Wire the DVS root to the server agent for on-demand generation.
	r.dvsServer.Generate = GenerateFunc(nil)
	if err := r.dvsServer.RegisterAgent("neghip", r.saAddr); err != nil {
		t.Fatal(err)
	}
	// Client agent asks for a set nobody has rendered: the DVS forwards to
	// the server agent, which renders and uploads; the client agent then
	// downloads it.
	ca := r.newClientAgent(t, nil)
	frame, rep, err := ca.GetViewSet(context.Background(), lightfield.ViewSetID{R: 1, C: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != AccessWAN || len(frame) == 0 {
		t.Errorf("on-demand access = %+v (%d bytes)", rep, len(frame))
	}
}

func TestParseViewSetKey(t *testing.T) {
	id, err := ParseViewSetKey("r03c11")
	if err != nil || id != (lightfield.ViewSetID{R: 3, C: 11}) {
		t.Errorf("parse = %v, %v", id, err)
	}
	for _, bad := range []string{"", "r3", "c3r4", "rXcY", "r-03c11x"} {
		if _, err := ParseViewSetKey(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestClientAgentCacheHit(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, nil)
	id := lightfield.ViewSetID{R: 0, C: 1}
	_, rep1, err := ca.GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Class != AccessWAN {
		t.Errorf("first access = %v", rep1.Class)
	}
	_, rep2, err := ca.GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Class != AccessHit {
		t.Errorf("second access = %v", rep2.Class)
	}
	if rep2.Comm > rep1.Comm {
		t.Errorf("hit latency %v exceeds WAN latency %v", rep2.Comm, rep1.Comm)
	}
	st := ca.Stats()
	if st.Hits != 1 || st.WANFetches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestClientAgentPrefetchPopulatesCache(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, func(c *ClientAgentConfig) {
		c.Prefetch, c.PrefetchPolicy = true, PrefetchQuadrant
	})
	// Move to the center of set (1,2); quadrant prefetch targets neighbors.
	sp := r.params.SetCenterAngles(lightfield.ViewSetID{R: 1, C: 2})
	ca.OnUserMove(sp)
	// Prefetch is async; wait for the predicted sets to land.
	preds := r.params.QuadrantPrefetch(sp)
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, id := range preds {
			if !ca.cache.Contains(id.String()) {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetch never completed for %v", preds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ca.Stats().Prefetches == 0 {
		t.Error("prefetches not counted")
	}
}

func TestClientAgentPrestagingFullDataset(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, nil)
	done, err := ca.StartPrestaging(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("prestaging did not finish")
	}
	if got := ca.StagedCount(); got != r.params.NumViewSets() {
		t.Fatalf("staged %d of %d", got, r.params.NumViewSets())
	}
	// A fresh fetch of an uncached set now comes from the LAN depot.
	id := lightfield.ViewSetID{R: 1, C: 3}
	_, rep, err := ca.GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != AccessLANDepot {
		t.Errorf("post-staging access class = %v", rep.Class)
	}
	// Starting again returns the same done channel, no double work.
	done2, err := ca.StartPrestaging(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done2:
	default:
		t.Error("second StartPrestaging returned an open channel")
	}
}

func TestClientAgentStagingOrderFollowsCursor(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, nil)
	target := lightfield.ViewSetID{R: 1, C: 3}
	ca.OnUserMove(r.params.SetCenterAngles(target))
	// Without starting the loop, ask the policy directly: the nearest
	// unstaged set must be the cursor's set.
	id, ok := ca.nextToStage(false)
	if !ok || id != target {
		t.Errorf("nextToStage = %v, want %v", id, target)
	}
	// Claimed one by one, the stager's order visits every set once, in
	// order of angular distance from the cursor (Figure 5: "ordered by
	// proximity to cursor").
	sp := r.params.SetCenterAngles(target)
	seen := map[lightfield.ViewSetID]bool{}
	prev := -1.0
	for {
		id, ok := ca.nextToStage(true)
		if !ok {
			break
		}
		if seen[id] {
			t.Fatalf("staging order claims %v twice", id)
		}
		seen[id] = true
		d := r.params.AngularDistToSet(sp, id)
		if d < prev-1e-12 {
			t.Fatalf("staging order not sorted by proximity: %v at %v after %v", id, d, prev)
		}
		prev = d
	}
	if len(seen) != r.params.NumViewSets() {
		t.Errorf("staging order covers %d sets, want %d", len(seen), r.params.NumViewSets())
	}
	// Sequential policy ignores the cursor.
	seq := r.newClientAgent(t, func(c *ClientAgentConfig) { c.StageOrderPolicy = StageSequential })
	seq.OnUserMove(r.params.SetCenterAngles(target))
	if id, ok := seq.nextToStage(false); !ok || id != (lightfield.ViewSetID{R: 0, C: 0}) {
		t.Errorf("sequential nextToStage = %v", id)
	}
}

func TestClientAgentStagedFallbackToWAN(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, nil)
	id := lightfield.ViewSetID{R: 0, C: 2}
	if err := ca.stageOne(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	// Sabotage the staged exNode (simulates lease expiry / revocation).
	ca.mu.Lock()
	for i := range ca.staged[id].Extents {
		for j := range ca.staged[id].Extents[i].Replicas {
			ca.staged[id].Extents[i].Replicas[j].ReadCap = "gone"
		}
	}
	ca.mu.Unlock()
	_, rep, err := ca.GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != AccessWAN {
		t.Errorf("fallback class = %v", rep.Class)
	}
	if isStaged(ca, id) {
		t.Error("dead staged entry not forgotten")
	}
}

func TestViewerMoveDecodeRender(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, nil)
	v, err := NewViewer(r.params, ca)
	if err != nil {
		t.Fatal(err)
	}
	sp := r.params.SetCenterAngles(lightfield.ViewSetID{R: 1, C: 1})
	rec, err := v.MoveTo(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Class != AccessWAN || rec.Total <= 0 || rec.Bytes == 0 {
		t.Errorf("first move record = %+v", rec)
	}
	if rec.Decompress <= 0 {
		t.Error("decompression time not recorded")
	}
	// Second move within the same view set: client-side hit.
	sp2 := sp
	sp2.Phi += 0.01
	rec2, err := v.MoveTo(context.Background(), sp2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Class != AccessHit || rec2.Total != 0 {
		t.Errorf("within-set move record = %+v", rec2)
	}
	// Rendering works from the decoded cache.
	im, stats, err := v.Render(sp, r.params.OuterRadius*1.6, 24)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Filled == 0 {
		t.Error("viewer render filled nothing")
	}
	if im.Res != 24 {
		t.Errorf("render res = %d", im.Res)
	}
	if len(v.Records()) != 2 {
		t.Errorf("records = %d", len(v.Records()))
	}
	// The first render built the renderer's camera cache, one camera per
	// lattice position; later renders must find it, not build it again.
	cameras := float64(r.params.Rows() * r.params.Cols())
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := v.Render(sp2, r.params.OuterRadius*1.6, 24); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= cameras {
		t.Errorf("a warm Render allocates %.0f times with %.0f lattice cameras: the camera cache is rebuilt per frame", allocs, cameras)
	}
}

func TestViewerDecodedCacheEviction(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, nil)
	v, err := NewViewer(r.params, ca)
	if err != nil {
		t.Fatal(err)
	}
	v.MaxDecoded = 2
	ids := r.params.AllViewSets()[:3]
	for _, id := range ids {
		if _, err := v.MoveTo(context.Background(), r.params.SetCenterAngles(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := v.ViewSet(ids[0]); ok {
		t.Error("oldest decoded set not evicted")
	}
	if _, ok := v.ViewSet(ids[2]); !ok {
		t.Error("current decoded set evicted")
	}
}

// TestViewerRecyclesEvictedSet: with MaxDecoded = 1 (the benchmark's PDA
// client) the viewer decodes every move into the images of the set it
// evicted the move before, so two sets' worth of pixels serve the session;
// what it decodes there is what a fresh decode gives; and a set evicted
// while a Render is in flight is never recycled.
func TestViewerRecyclesEvictedSet(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, nil)
	v, err := NewViewer(r.params, ca)
	if err != nil {
		t.Fatal(err)
	}
	v.MaxDecoded = 1
	ids := r.params.AllViewSets()
	buffers := map[*byte]bool{}
	move := func(id lightfield.ViewSetID) *lightfield.ViewSet {
		t.Helper()
		if _, err := v.MoveTo(context.Background(), r.params.SetCenterAngles(id)); err != nil {
			t.Fatal(err)
		}
		vs, ok := v.ViewSet(id)
		if !ok {
			t.Fatalf("%v not decoded after the move", id)
		}
		buffers[&vs.Views[0].Pix[0]] = true
		frame, _, err := ca.GetViewSet(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if fresh, err := lightfield.DecodeViewSet(frame, r.params); err != nil || !vs.Equal(fresh) {
			t.Fatalf("%v decoded into a recycled set differs from a fresh decode (err %v)", id, err)
		}
		return vs
	}
	for _, id := range ids {
		move(id)
	}
	if len(buffers) != 2 {
		t.Errorf("%d moves decoded into %d distinct sets of images, want 2", len(ids), len(buffers))
	}

	// A Render in flight may hold the set the next move evicts.
	v.countRender(1)
	read := move(ids[0])
	move(ids[1])
	if v.spare != nil {
		t.Fatal("a set evicted under a Render in flight became the spare")
	}
	v.countRender(-1)
	if now := move(ids[2]); now == read {
		t.Fatal("a move decoded over a set a Render could still read")
	}
	if v.spare == nil {
		t.Error("no Render in flight, and the evicted set was not kept")
	}
}

// TestViewerRecycleUnderRender moves and renders on two goroutines; the
// race detector reports a decode that writes pixels a Render still reads.
func TestViewerRecycleUnderRender(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, nil)
	v, err := NewViewer(r.params, ca)
	if err != nil {
		t.Fatal(err)
	}
	v.MaxDecoded = 1
	ids := r.params.AllViewSets()
	stop := make(chan struct{})
	rendered := make(chan int)
	go func() {
		n := 0
		defer func() { rendered <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := v.Render(r.params.SetCenterAngles(ids[n%len(ids)]), r.params.OuterRadius*1.6, 16); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()
	for k := 0; k < 60; k++ {
		if _, err := v.MoveTo(context.Background(), r.params.SetCenterAngles(ids[k%len(ids)])); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	if n := <-rendered; n == 0 {
		t.Error("no frame was rendered beside the moves")
	}
}

func TestAccessClassString(t *testing.T) {
	if AccessHit.String() != "hit" || AccessLANDepot.String() != "lan-depot" || AccessWAN.String() != "wan" {
		t.Error("AccessClass strings wrong")
	}
	if AccessClass(9).String() == "" {
		t.Error("unknown class string empty")
	}
}

func TestViewerValidation(t *testing.T) {
	if _, err := NewViewer(tinyParams(), nil); err == nil {
		t.Error("nil source accepted")
	}
	bad := tinyParams()
	bad.Res = 0
	r := newRig(t)
	ca := r.newClientAgent(t, nil)
	if _, err := NewViewer(bad, ca); err == nil {
		t.Error("bad params accepted")
	}
}

func TestClientAgentValidation(t *testing.T) {
	r := newRig(t)
	if _, err := NewClientAgent(ClientAgentConfig{Params: r.params, DVS: r.dvsClient}); err == nil {
		t.Error("missing dataset accepted")
	}
	if _, err := NewClientAgent(ClientAgentConfig{Dataset: "d", Params: r.params}); err == nil {
		t.Error("missing DVS accepted")
	}
	ca, err := NewClientAgent(ClientAgentConfig{Dataset: "d", Params: r.params, DVS: r.dvsClient})
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	if _, _, err := ca.GetViewSet(context.Background(), lightfield.ViewSetID{R: 50, C: 50}); err == nil {
		t.Error("invalid view set accepted")
	}
	noLAN, _ := NewClientAgent(ClientAgentConfig{Dataset: "d", Params: r.params, DVS: r.dvsClient})
	defer noLAN.Close()
	if _, err := noLAN.StartPrestaging(context.Background()); err == nil {
		t.Error("prestaging without LAN depot accepted")
	}
}

func TestQuadrantPrefetchAgreesWithPolicy(t *testing.T) {
	// The agent must prefetch exactly the policy's prediction set.
	p := tinyParams()
	sp := geom.Spherical{Theta: math.Pi/2 + 0.1, Phi: 1.0}
	preds := p.QuadrantPrefetch(sp)
	if len(preds) == 0 {
		t.Fatal("no predictions; pick a different test direction")
	}
}

func TestStageOneUnknownViewSet(t *testing.T) {
	r := newRig(t)
	ca := r.newClientAgent(t, nil)
	// Nothing precomputed and no on-demand generation: staging must fail
	// cleanly.
	err := ca.stageOne(context.Background(), lightfield.ViewSetID{R: 0, C: 0})
	if err == nil {
		t.Error("staging unknown view set succeeded")
	}
}

func TestRouteMissesThroughDepot(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, func(c *ClientAgentConfig) { c.RouteMissesThroughDepot = true })
	id := lightfield.ViewSetID{R: 1, C: 1}
	frame, rep, err := ca.GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != AccessWAN || len(frame) == 0 {
		t.Fatalf("routed miss = %+v", rep)
	}
	// The routed transfer leaves a staged copy behind.
	if !isStaged(ca, id) {
		t.Error("routed miss did not leave a staged copy")
	}
	// After dropping only the cache, the next access is a LAN depot fetch.
	ca.cache.Remove(id.String())
	_, rep2, err := ca.GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Class != AccessLANDepot {
		t.Errorf("post-routing access class = %v", rep2.Class)
	}
	// Frame decodes correctly after the copy+download round trip.
	if _, err := lightfield.DecodeViewSet(frame, r.params); err != nil {
		t.Error(err)
	}
}

func TestRouteMissesFallsBackWithoutDepot(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, func(c *ClientAgentConfig) {
		c.RouteMissesThroughDepot = true
		c.LANDepots = nil
	})
	_, rep, err := ca.GetViewSet(context.Background(), lightfield.ViewSetID{R: 0, C: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != AccessWAN {
		t.Errorf("fallback class = %v", rep.Class)
	}
}

// isStaged reports whether the agent holds a staged copy of id.
func isStaged(ca *ClientAgent, id lightfield.ViewSetID) bool {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.staged[id] != nil
}
