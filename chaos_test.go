package lonviz

import (
	"bytes"
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/netsim"
	"lonviz/internal/steward"
)

// chaosRig is an in-process deployment for fault-injection soaks: three
// WAN depots, two LAN depots, a DVS, and a server agent that has published
// a tiny procedural light-field database with every extent on two distinct
// depots.
type chaosRig struct {
	params    lightfield.Params
	wanDepots []string
	lanDepots []string
	dvsClient *dvs.Client
	reference map[lightfield.ViewSetID][]byte
}

func newChaosRig(t *testing.T) *chaosRig {
	t.Helper()
	r := &chaosRig{params: lightfield.ScaledParams(45, 2, 6)} // 2x4 sets
	startDepot := func() string {
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
		return addr
	}
	for i := 0; i < 3; i++ {
		r.wanDepots = append(r.wanDepots, startDepot())
	}
	for i := 0; i < 2; i++ {
		r.lanDepots = append(r.lanDepots, startDepot())
	}

	dvsServer := dvs.NewServer("")
	dvsAddr, err := dvsServer.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dvsServer.Close() })
	r.dvsClient = &dvs.Client{Addr: dvsAddr}

	gen, err := lightfield.NewProceduralGenerator(r.params, 77)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:  "neghip",
		Gen:      gen,
		Depots:   r.wanDepots,
		DVS:      r.dvsClient,
		Replicas: 2, // every extent survives one bad depot
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sa.Close() })
	published, err := sa.PrecomputeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(published) != r.params.NumViewSets() {
		t.Fatalf("published %d of %d view sets", len(published), r.params.NumViewSets())
	}

	// Record the ground-truth frame bytes over a clean connection; every
	// chaos-phase access is checked against these.
	clean, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:    "neghip",
		Params:     r.params,
		DVS:        r.dvsClient,
		CacheBytes: 1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	r.reference = make(map[lightfield.ViewSetID][]byte)
	for _, id := range r.params.AllViewSets() {
		frame, _, err := clean.GetViewSet(context.Background(), id)
		if err != nil {
			t.Fatalf("clean fetch of %v: %v", id, err)
		}
		if vs, err := lightfield.DecodeViewSet(frame, r.params); err != nil || vs.ID != id {
			t.Fatalf("clean frame for %v does not decode: %v", id, err)
		}
		r.reference[id] = frame
	}
	return r
}

// noFrameCache is a client agent cache budget that no view set frame fits
// in, so every access of a browse pass reaches the depots.
const noFrameCache = 1

// browseAll fetches every view set once through ca, whose cache is
// noFrameCache so that every pass hits the network again, and fails the
// test on any error or any byte deviating from the precomputed reference —
// the "every GetViewSet returns checksum-clean bytes" acceptance bar.
func (r *chaosRig) browseAll(t *testing.T, ca *agent.ClientAgent, phase string) {
	t.Helper()
	for _, id := range r.params.AllViewSets() {
		frame, _, err := ca.GetViewSet(context.Background(), id)
		if err != nil {
			t.Fatalf("%s: GetViewSet(%v): %v", phase, id, err)
		}
		if !bytes.Equal(frame, r.reference[id]) {
			t.Fatalf("%s: GetViewSet(%v) returned corrupted bytes", phase, id)
		}
	}
}

// TestChaosBrowseUnderFaults drives the full browsing stack while the
// fault layer degrades the WAN: one depot silently corrupts payloads and
// another flaps (dies, gets circuit-broken, and comes back). The client
// must never surface corrupt bytes, must record the failovers it made, and
// must send zero requests to a circuit-open depot for the whole cooldown.
//
// It runs twice. With prestaging, a staging COPY that happens to succeed
// against the corrupting depot can close its circuit again before the
// flappy depot dies. Without a stager nothing re-closes it, so when the
// flappy depot dies every replica of the extents the two share sits behind
// an open circuit: the deterministic form of the breaker bug, which only
// the breaker's probe of the soonest-to-reopen depot lets through.
func TestChaosBrowseUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; run without -short")
	}
	checkGoroutines(t)
	for _, tc := range []struct {
		name  string
		stage bool
	}{{"prestaged", true}, {"no stager", false}} {
		t.Run(tc.name, func(t *testing.T) { chaosBrowse(t, tc.stage) })
	}
}

func chaosBrowse(t *testing.T, stage bool) {
	r := newChaosRig(t)
	flappy, corrupting, clean := r.wanDepots[0], r.wanDepots[1], r.wanDepots[2]
	_ = clean

	fd := netsim.NewFaultDialer(nil, 4242)
	// clockSkew shifts the breaker's clock so cooldown expiry is a test
	// decision, not a sleep. Atomic because prestage workers read the
	// clock concurrently.
	var clockSkew atomic.Int64
	health := lors.NewHealthTracker(lors.HealthConfig{
		FailureThreshold: 3,
		Cooldown:         time.Hour,
		Now:              func() time.Time { return time.Now().Add(time.Duration(clockSkew.Load())) },
	})

	newAgent := func(lan []string) *agent.ClientAgent {
		ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
			Dataset:    "neghip",
			Params:     r.params,
			DVS:        r.dvsClient,
			Dialer:     fd,
			CacheBytes: noFrameCache,
			LANDepots:  lan,
			Health:     health,
			Retries:    4,
			Rand:       rand.New(rand.NewSource(99)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ca.Close)
		return ca
	}

	// Phase 1 — hard corruption: every reply from the corrupting depot
	// flips a payload byte. Each extent has a replica elsewhere, so every
	// access must fail over to clean bytes and the checksum layer must be
	// what caught it.
	fd.SetFault(corrupting, netsim.FaultProfile{CorruptProb: 1})
	var ca *agent.ClientAgent
	var prestageDone <-chan struct{}
	if stage {
		ca = newAgent(r.lanDepots)
		var err error
		if prestageDone, err = ca.StartPrestaging(context.Background()); err != nil {
			t.Fatal(err)
		}
	} else {
		ca = newAgent(nil)
	}
	r.browseAll(t, ca, "hard corruption")
	st := ca.Stats()
	if st.ChecksumErrors == 0 {
		t.Error("no checksum errors recorded while a depot corrupted every payload")
	}
	if st.FailedAttempts == 0 {
		t.Error("no failed attempts recorded while a depot corrupted every payload")
	}

	// Phase 2 — background chaos: corruption drops to 10% and the stack
	// keeps browsing (prestaging is still running throughout) with
	// occasional latency spikes on the clean depot.
	fd.SetFault(corrupting, netsim.FaultProfile{CorruptProb: 0.1})
	fd.SetFault(clean, netsim.FaultProfile{SpikeProb: 0.2, Spike: 2 * time.Millisecond})
	for pass := 0; pass < 3; pass++ {
		r.browseAll(t, ca, "10% corruption")
	}

	if stage {
		// Let prestaging finish before the flap phase so its transfers
		// cannot blur the zero-dials assertion below.
		select {
		case <-prestageDone:
		case <-time.After(60 * time.Second):
			t.Fatal("prestaging never finished")
		}
		if ca.StagedCount() == 0 {
			t.Error("prestaging staged nothing despite a corrupting depot")
		}
	} else if !health.Open(corrupting) {
		t.Fatal("the corrupting depot's circuit is not open before the flap")
	}

	// Phase 3 — the flap: the flappy depot dies. A WAN-only agent (no LAN
	// staging, shared breaker) keeps browsing; failures to the dead depot
	// must open its circuit.
	fd.Kill(flappy)
	wan := newAgent(nil)
	for i := 0; !health.Open(flappy); i++ {
		if i >= 50 {
			t.Fatal("50 passes against a dead depot never opened its circuit")
		}
		r.browseAll(t, wan, "depot down")
	}
	if fd.Refused(flappy) == 0 {
		t.Error("dead depot recorded no refused dials")
	}

	// Phase 4 — cooldown: with the circuit open, whole browsing passes
	// (both agents) must send zero requests to the flappy depot.
	dialsBefore := fd.Dials(flappy)
	for pass := 0; pass < 3; pass++ {
		r.browseAll(t, wan, "cooldown")
		r.browseAll(t, ca, "cooldown")
	}
	if d := fd.Dials(flappy); d != dialsBefore {
		t.Errorf("circuit-open depot received %d dials during cooldown", d-dialsBefore)
	}

	// Phase 5 — recovery: the depot comes back and the cooldown lapses;
	// the half-open probe succeeds and the depot serves traffic again.
	fd.Revive(flappy)
	clockSkew.Store(int64(2 * time.Hour))
	if !health.Allow(flappy) {
		t.Fatal("cooldown expiry did not re-admit the revived depot")
	}
	r.browseAll(t, wan, "recovered")
	snap := health.Snapshot()
	var flappyHealth *lors.DepotHealth
	for i := range snap {
		if snap[i].Depot == flappy {
			flappyHealth = &snap[i]
		}
	}
	if flappyHealth == nil || flappyHealth.Open {
		t.Errorf("revived depot still circuit-open: %+v", flappyHealth)
	}

	st = wan.Stats()
	if st.FailedAttempts == 0 || st.ReplicaTries == 0 {
		t.Errorf("WAN agent stats = %+v; chaos left no failover trace", st)
	}
}

// TestChaosStewardSelfHealing proves the full maintenance loop end to
// end: a published database loses a depot while its leases march toward
// expiry, and the steward — probing through the same fault layer the
// failure happened on — renews every surviving lease, re-replicates every
// under-replicated extent onto fresh depots from the L-Bone, prunes the
// dead replicas, and republishes through the DVS. A client arriving after
// the original leases would have expired must still download every view
// set byte-identically.
func TestChaosStewardSelfHealing(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; run without -short")
	}

	// Depots share one skewable clock so lease expiry is a test decision,
	// not a sleep. The steward and health tracker run on the same clock.
	var skew atomic.Int64
	now := func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }

	params := lightfield.ScaledParams(45, 2, 6) // 2x4 sets
	var depots []string
	startDepot := func() string {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 24, MaxLease: time.Hour, Clock: now})
		if err != nil {
			t.Fatal(err)
		}
		srv := ibp.NewServer(d)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return addr
	}
	for i := 0; i < 4; i++ {
		depots = append(depots, startDepot())
	}
	wan, spare := depots[:3], depots[3]
	_ = spare

	dvsServer := dvs.NewServer("")
	dvsAddr, err := dvsServer.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dvsServer.Close() })
	dvsClient := &dvs.Client{Addr: dvsAddr}

	// The L-Bone knows all four depots; the steward discovers repair
	// targets through it, never from a hard-coded list.
	dir := lbone.NewServer()
	dirAddr, err := dir.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	for i, d := range depots {
		if err := dir.Register(lbone.DepotRecord{Addr: d, X: float64(i), Capacity: 1 << 24, Free: 1 << 24}); err != nil {
			t.Fatal(err)
		}
	}

	gen, err := lightfield.NewProceduralGenerator(params, 77)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:  "neghip",
		Gen:      gen,
		Depots:   wan,
		DVS:      dvsClient,
		Replicas: 2,
		Lease:    10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sa.Close() })
	published, err := sa.PrecomputeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth, fetched over a clean connection.
	clean, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset: "neghip", Params: params, DVS: dvsClient, CacheBytes: 1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	reference := make(map[lightfield.ViewSetID][]byte)
	for _, id := range params.AllViewSets() {
		frame, _, err := clean.GetViewSet(context.Background(), id)
		if err != nil {
			t.Fatalf("clean fetch of %v: %v", id, err)
		}
		reference[id] = frame
	}
	clean.Close()

	// The steward dials through the fault layer, like everything else.
	fd := netsim.NewFaultDialer(nil, 4243)
	health := lors.NewHealthTracker(lors.HealthConfig{
		FailureThreshold: 3,
		Cooldown:         time.Millisecond, // retry quickly; liveness is the prune policy's job here
		Now:              now,
	})
	stw := steward.New(steward.Config{
		ReplicationTarget: 2,
		RenewalWindow:     5 * time.Minute,
		LeaseTerm:         10 * time.Minute,
		PruneAfter:        2,
		VerifyPerCycle:    1,
		Clock:             now,
		Dialer:            fd,
		Health:            health,
		Locate:            steward.LBoneLocator(&lbone.Client{BaseURL: "http://" + dirAddr}, 0, 0),
		Publish: func(ctx context.Context, name string, ex *exnode.ExNode) error {
			xml, err := ex.Marshal()
			if err != nil {
				return err
			}
			return dvsClient.Replace(ctx, dvs.Key{Dataset: "neghip", ViewSet: name}, xml)
		},
	})
	for id, xml := range published {
		ex, err := exnode.Unmarshal(xml)
		if err != nil {
			t.Fatal(err)
		}
		if err := stw.Adopt(id.String(), ex); err != nil {
			t.Fatal(err)
		}
	}

	// Phase A — healthy baseline: fresh leases, full replication, nothing
	// for the steward to do.
	rep, err := stw.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyReplicated || rep.LeasesRenewed != 0 || rep.RepairsAttempted != 0 || rep.ReplicasPruned != 0 {
		t.Fatalf("baseline cycle did work: %+v", rep)
	}

	// Phase B — the incident: a depot dies while 7 of the leases' 10
	// minutes burn down, putting every survivor inside the renewal window.
	dead := wan[0]
	fd.Kill(dead)
	skew.Store(int64(7 * time.Minute))

	converged := false
	for cycle := 0; cycle < 6; cycle++ {
		rep, err = stw.RunCycle(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.FullyReplicated {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("steward never converged; last cycle %+v", rep)
	}

	st := stw.Stats()
	numObjects := len(published)
	if st.LeasesRenewed == 0 {
		t.Error("no leases renewed despite expiring survivors")
	}
	if st.RepairsSucceeded < int64(numObjects) {
		t.Errorf("repairs = %d, want >= %d (one per under-replicated object)", st.RepairsSucceeded, numObjects)
	}
	if st.ReplicasPruned < int64(numObjects) {
		t.Errorf("pruned = %d, want >= %d", st.ReplicasPruned, numObjects)
	}
	if st.Republishes == 0 {
		t.Error("no repaired exNode was republished")
	}
	for _, name := range stw.Objects() {
		ex := stw.ExNode(name)
		for _, x := range ex.Extents {
			if len(x.Replicas) < 2 {
				t.Errorf("%s: extent at %d has %d replicas after healing", name, x.Offset, len(x.Replicas))
			}
		}
		for _, d := range ex.Depots() {
			if d == dead {
				t.Errorf("%s: still references dead depot", name)
			}
		}
	}

	// Phase C — the proof: past the original leases' expiry, a brand-new
	// client resolving from the DVS sees only renewed/repaired replicas and
	// downloads everything byte-identically, through the same fault layer
	// that killed the depot.
	skew.Store(int64(12 * time.Minute))
	late, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:    "neghip",
		Params:     params,
		DVS:        dvsClient,
		Dialer:     fd,
		CacheBytes: 1 << 22,
		Retries:    4,
		Rand:       rand.New(rand.NewSource(99)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(late.Close)
	for _, id := range params.AllViewSets() {
		frame, _, err := late.GetViewSet(context.Background(), id)
		if err != nil {
			t.Fatalf("post-healing GetViewSet(%v): %v", id, err)
		}
		if !bytes.Equal(frame, reference[id]) {
			t.Fatalf("post-healing GetViewSet(%v) returned different bytes", id)
		}
	}
}

// TestChaosDeterministicReplay checks the harness itself: the same seed
// must produce the same fault decisions for the same operation sequence,
// which is what makes chaos failures reproducible.
func TestChaosDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; run without -short")
	}
	r := newChaosRig(t)
	target := r.wanDepots[0]

	run := func(seed int64) (refused int, checksum int64) {
		fd := netsim.NewFaultDialer(nil, seed)
		fd.SetFault(target, netsim.FaultProfile{RefuseProb: 0.3, CorruptProb: 0.3})
		ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
			Dataset:     "neghip",
			Params:      r.params,
			DVS:         r.dvsClient,
			Dialer:      fd,
			CacheBytes:  noFrameCache,
			Retries:     4,
			Parallelism: 1, // sequential extents keep the dial order fixed
			Rand:        rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ca.Close()
		r.browseAll(t, ca, "replay")
		return fd.Refused(target), ca.Stats().ChecksumErrors
	}

	r1, c1 := run(11)
	r2, c2 := run(11)
	if r1 != r2 || c1 != c2 {
		t.Errorf("same seed diverged: refused %d vs %d, checksum errors %d vs %d", r1, r2, c1, c2)
	}
}
