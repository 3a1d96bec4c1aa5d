package steward

import (
	"bytes"
	"context"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/lors"
	"lonviz/internal/obs"
)

// rig is a small depot farm whose depots share one skewable clock, so
// tests can march leases toward expiry without sleeping.
type rig struct {
	addrs   []string
	servers []*ibp.Server
	skew    atomic.Int64 // nanoseconds added to real time
}

func (r *rig) now() time.Time { return time.Now().Add(time.Duration(r.skew.Load())) }

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	r := &rig{}
	for i := 0; i < n; i++ {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 22, MaxLease: time.Hour, Clock: r.now})
		if err != nil {
			t.Fatal(err)
		}
		srv := ibp.NewServer(d)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		r.addrs = append(r.addrs, addr)
		r.servers = append(r.servers, srv)
	}
	return r
}

func testPayload(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// fixedLocator returns the given depots, honoring the exclusion set.
func fixedLocator(addrs ...string) LocateFunc {
	return func(_ context.Context, n int, _ int64, exclude map[string]bool) ([]string, error) {
		var out []string
		for _, a := range addrs {
			if !exclude[a] {
				out = append(out, a)
			}
		}
		if n > 0 && len(out) > n {
			out = out[:n]
		}
		return out, nil
	}
}

func TestStewardRenewsExpiringLeases(t *testing.T) {
	r := newRig(t, 2)
	data := testPayload(96*1024, 1)
	ex, err := lors.Upload(context.Background(), "obj", data, lors.UploadOptions{
		Depots: r.addrs, Replicas: 2, StripeSize: 32 * 1024, Lease: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{
		ReplicationTarget: 2,
		RenewalWindow:     5 * time.Minute,
		LeaseTerm:         30 * time.Minute,
		VerifyPerCycle:    -1,
		Clock:             r.now,
	})
	defer s.Close()
	if err := s.Adopt("obj", ex); err != nil {
		t.Fatal(err)
	}

	// Everything fresh: nothing should be renewed or repaired.
	rep, err := s.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeasesRenewed != 0 || rep.RepairsAttempted != 0 || rep.Dead != 0 {
		t.Fatalf("fresh cycle did work: %+v", rep)
	}
	if !rep.FullyReplicated {
		t.Fatalf("fresh cycle not fully replicated: %+v", rep)
	}

	// 7 minutes later the 10m leases fall inside the 5m renewal window.
	r.skew.Store(int64(7 * time.Minute))
	before := s.Stats()
	rep, err = s.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantReplicas := 0
	for _, x := range ex.Extents {
		wantReplicas += len(x.Replicas)
	}
	if rep.LeasesRenewed != wantReplicas {
		t.Fatalf("renewed %d leases, want %d (report %+v)", rep.LeasesRenewed, wantReplicas, rep)
	}
	if got := s.Stats().LeasesRenewed - before.LeasesRenewed; got != int64(wantReplicas) {
		t.Errorf("renewals counted = %d, want %d", got, wantReplicas)
	}

	// The steward's copy must record the new expiries: all beyond the
	// original 10m horizon.
	cur := s.ExNode("obj")
	horizon := cur.LeaseHorizon()
	if !horizon.After(time.Now().Add(15 * time.Minute)) {
		t.Errorf("lease horizon %v not pushed out by renewal", horizon)
	}
	// Each replica records the expiry its depot granted, not a client
	// guess: the depots' clock runs 7 minutes ahead of this one.
	for _, x := range cur.Extents {
		for _, rp := range x.Replicas {
			cl := &ibp.Client{Addr: rp.Depot}
			info, err := cl.Probe(context.Background(), rp.ManageCap)
			cl.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !rp.Expiry().Equal(info.Expires) {
				t.Errorf("replica on %s records expiry %v, depot granted %v", rp.Depot, rp.Expiry(), info.Expires)
			}
		}
	}

	// 11 minutes in, the original leases would be dead; renewed ones live.
	r.skew.Store(int64(11 * time.Minute))
	got, _, err := lors.Download(context.Background(), cur, lors.DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("post-renewal download mismatch")
	}

	st := s.Stats()
	if st.Cycles != 2 || st.LeasesRenewed != int64(wantReplicas) || st.RenewFailures != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStewardRepairsUnderReplication(t *testing.T) {
	r := newRig(t, 3)
	data := testPayload(96*1024, 2)
	// Stripes round-robin over the first two depots; the third is spare.
	ex, err := lors.Upload(context.Background(), "obj", data, lors.UploadOptions{
		Depots: r.addrs[:2], Replicas: 2, StripeSize: 32 * 1024, Lease: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	numExtents := len(ex.Extents)

	published := make(map[string]*exnode.ExNode)
	var pubMu sync.Mutex
	s := New(Config{
		ReplicationTarget: 2,
		LeaseTerm:         30 * time.Minute,
		PruneAfter:        1,
		VerifyPerCycle:    -1,
		Locate:            fixedLocator(r.addrs...),
		Publish: func(_ context.Context, name string, ex *exnode.ExNode) error {
			pubMu.Lock()
			published[name] = ex
			pubMu.Unlock()
			return nil
		},
	})
	if err := s.Adopt("obj", ex); err != nil {
		t.Fatal(err)
	}

	// Kill depot 0: every extent drops to one replica.
	dead := r.addrs[0]
	r.servers[0].Close()

	before := s.Stats()
	rep, err := s.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicasPruned != numExtents {
		t.Errorf("pruned %d, want %d", rep.ReplicasPruned, numExtents)
	}
	if rep.RepairsSucceeded != numExtents {
		t.Errorf("repaired %d, want %d (report %+v)", rep.RepairsSucceeded, numExtents, rep)
	}

	cur := s.ExNode("obj")
	if got := cur.ReplicationFactor(); got != 2 {
		t.Errorf("replication factor = %d, want 2", got)
	}
	for _, d := range cur.Depots() {
		if d == dead {
			t.Errorf("dead depot %s still referenced", dead)
		}
	}
	if err := cur.Validate(); err != nil {
		t.Error(err)
	}

	// The repaired layout must have been republished and be downloadable.
	pubMu.Lock()
	pubEx := published["obj"]
	pubMu.Unlock()
	if pubEx == nil {
		t.Fatal("repaired exNode was not republished")
	}
	got, _, err := lors.Download(context.Background(), pubEx, lors.DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("post-repair download mismatch")
	}

	st := s.Stats()
	if repaired, pruned := st.RepairsSucceeded-before.RepairsSucceeded, st.ReplicasPruned-before.ReplicasPruned; repaired != int64(numExtents) || pruned != int64(numExtents) {
		t.Errorf("counted: repairs=%d pruned=%d, want %d each", repaired, pruned, numExtents)
	}

	// Next cycle: healthy steady state, nothing to do.
	rep, err = s.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyReplicated || rep.RepairsAttempted != 0 || rep.ReplicasPruned != 0 {
		t.Errorf("steady-state cycle did work: %+v", rep)
	}
}

func TestStewardPruneGracePeriod(t *testing.T) {
	r := newRig(t, 2)
	data := testPayload(16*1024, 3)
	ex, err := lors.Upload(context.Background(), "obj", data, lors.UploadOptions{
		Depots: r.addrs, Replicas: 2, Lease: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{
		ReplicationTarget: 2,
		PruneAfter:        2,
		VerifyPerCycle:    -1,
		// No locator: repair disabled, isolating the prune policy.
	})
	if err := s.Adopt("obj", ex); err != nil {
		t.Fatal(err)
	}
	r.servers[0].Close()

	// First cycle: unreachable but within grace — still referenced.
	rep, err := s.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicasPruned != 0 || rep.Dead != 0 {
		t.Fatalf("first unreachable cycle pruned: %+v", rep)
	}
	if len(s.ExNode("obj").Depots()) != 2 {
		t.Fatal("replica dropped during grace period")
	}

	// Second consecutive unreachable cycle: now it is dead and pruned.
	rep, err = s.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicasPruned != len(ex.Extents) {
		t.Errorf("pruned %d, want %d", rep.ReplicasPruned, len(ex.Extents))
	}
	if rep.RepairsAttempted != 0 {
		t.Errorf("repairs attempted with nil locator: %+v", rep)
	}
	cur := s.ExNode("obj")
	if got := cur.ReplicationFactor(); got != 1 {
		t.Errorf("replication factor = %d, want 1", got)
	}
}

func TestStewardVerifyCatchesCorruption(t *testing.T) {
	r := newRig(t, 3)
	good := testPayload(8*1024, 4)
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff

	// Handcraft a 2-replica extent where the first replica's depot holds
	// corrupted bytes: only payload sampling can tell, since probes and
	// leases are all healthy.
	ctx := context.Background()
	store := func(addr string, payload []byte) exnode.Replica {
		t.Helper()
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
		Name:   "obj",
		Length: int64(len(good)),
		Extents: []exnode.Extent{{
			Offset:   0,
			Length:   int64(len(good)),
			Checksum: exnode.ChecksumOf(good),
			Replicas: []exnode.Replica{store(r.addrs[0], bad), store(r.addrs[1], good)},
		}},
	}

	s := New(Config{
		ReplicationTarget: 2,
		VerifyPerCycle:    1,
		// Offer only the spare depot, so the repair demonstrably moves the
		// data off the corrupt allocation's depot.
		Locate: fixedLocator(r.addrs[2]),
	})
	if err := s.Adopt("obj", ex); err != nil {
		t.Fatal(err)
	}

	rep, err := s.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.VerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want 1 (report %+v)", st.VerifyFailures, rep)
	}
	if rep.ReplicasPruned != 1 || rep.RepairsSucceeded != 1 {
		t.Fatalf("corrupt replica not replaced: %+v", rep)
	}
	cur := s.ExNode("obj")
	for _, d := range cur.Depots() {
		if d == r.addrs[0] {
			t.Error("corrupt replica still referenced")
		}
	}
	got, _, err := lors.Download(context.Background(), cur, lors.DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, good) {
		t.Error("post-repair download mismatch")
	}
}

func TestStewardNeverPrunesLastReplica(t *testing.T) {
	r := newRig(t, 1)
	data := testPayload(4*1024, 5)
	ex, err := lors.Upload(context.Background(), "obj", data, lors.UploadOptions{
		Depots: r.addrs, Lease: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{
		ReplicationTarget: 1,
		PruneAfter:        1,
		VerifyPerCycle:    -1,
	})
	if err := s.Adopt("obj", ex); err != nil {
		t.Fatal(err)
	}
	r.servers[0].Close()

	rep, err := s.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicasPruned != 0 {
		t.Errorf("pruned the last replica: %+v", rep)
	}
	if got := s.Stats().ExtentsLost; got != int64(len(ex.Extents)) {
		t.Errorf("extents lost = %d, want %d", got, len(ex.Extents))
	}
	// The stale replica is kept as the forensic trail.
	if len(s.ExNode("obj").Extents[0].Replicas) != 1 {
		t.Error("lost extent's replica list was emptied")
	}
}

func TestStewardRepairBudget(t *testing.T) {
	r := newRig(t, 3)
	data := testPayload(128*1024, 6)
	ex, err := lors.Upload(context.Background(), "obj", data, lors.UploadOptions{
		Depots: r.addrs[:2], Replicas: 2, StripeSize: 32 * 1024, Lease: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	numExtents := len(ex.Extents)
	if numExtents < 4 {
		t.Fatalf("want >= 4 extents, got %d", numExtents)
	}

	s := New(Config{
		ReplicationTarget: 2,
		PruneAfter:        1,
		RepairBudget:      2, // less than the damage
		VerifyPerCycle:    -1,
		Locate:            fixedLocator(r.addrs...),
	})
	if err := s.Adopt("obj", ex); err != nil {
		t.Fatal(err)
	}
	r.servers[0].Close()

	rep, err := s.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairsSucceeded != 2 {
		t.Errorf("first cycle repaired %d, want budget-capped 2", rep.RepairsSucceeded)
	}

	// Subsequent cycles finish the job within a few budgets.
	for i := 0; i < 3 && s.ExNode("obj").ReplicationFactor() < 2; i++ {
		if _, err := s.RunCycle(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ExNode("obj").ReplicationFactor(); got != 2 {
		t.Errorf("replication factor = %d after budgeted repairs, want 2", got)
	}
}

func TestStewardAdoptValidatesAndForget(t *testing.T) {
	s := New(Config{})
	if err := s.Adopt("", &exnode.ExNode{}); err == nil {
		t.Error("empty name accepted")
	}
	broken := &exnode.ExNode{Name: "x", Length: 10} // no extents
	if err := s.Adopt("x", broken); err == nil {
		t.Error("invalid exNode accepted")
	}
	ok := &exnode.ExNode{Name: "x"}
	if err := s.Adopt("x", ok); err != nil {
		t.Fatal(err)
	}
	if got := s.Objects(); len(got) != 1 || got[0] != "x" {
		t.Errorf("objects = %v", got)
	}
	// The steward holds a private copy.
	ok.Name = "mutated"
	if s.ExNode("x").Name != "x" {
		t.Error("Adopt did not deep-copy")
	}
	s.Forget("x")
	if len(s.Objects()) != 0 || s.ExNode("x") != nil {
		t.Error("Forget left state behind")
	}
}

func TestLBoneLocator(t *testing.T) {
	dir := lbone.NewServer()
	addr, err := dir.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	for i, a := range []string{"d0:1", "d1:1", "d2:1"} {
		if err := dir.Register(lbone.DepotRecord{Addr: a, X: float64(i), Capacity: 100, Free: 50}); err != nil {
			t.Fatal(err)
		}
	}
	loc := LBoneLocator(&lbone.Client{BaseURL: "http://" + addr}, 0, 0)
	got, err := loc(context.Background(), 2, 10, map[string]bool{"d0:1": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "d1:1" || got[1] != "d2:1" {
		t.Errorf("locator returned %v", got)
	}
	// minFree beyond every depot's free space yields nothing.
	got, err = loc(context.Background(), 2, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("locator ignored minFree: %v", got)
	}
}

func TestStewardRunLoop(t *testing.T) {
	r := newRig(t, 2)
	data := testPayload(8*1024, 7)
	ex, err := lors.Upload(context.Background(), "obj", data, lors.UploadOptions{
		Depots: r.addrs, Replicas: 2, Lease: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{ScanInterval: 5 * time.Millisecond, VerifyPerCycle: -1})
	if err := s.Adopt("obj", ex); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Cycles < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Run returned %v", err)
	}
	if got := s.Stats().Cycles; got < 2 {
		t.Errorf("run loop completed %d cycles", got)
	}
}

// TestStewardEventsReachEventLog: the steward reports on the one event log.
// A renewal lands in the ring at debug and a repair whose target depot
// fails at warn, each naming its object, extent and depot, the failure with
// its error.
func TestStewardEventsReachEventLog(t *testing.T) {
	lg := obs.DefaultLogger()
	level := lg.Level.Level()
	lg.Level.Set(slog.LevelDebug)
	t.Cleanup(func() { lg.Level.Set(level) })

	r := newRig(t, 3)
	ex, err := lors.Upload(context.Background(), "obj", testPayload(8*1024, 8), lors.UploadOptions{
		Depots: r.addrs[:2], Replicas: 2, Lease: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Extents) != 1 {
		t.Fatalf("want one extent, got %d", len(ex.Extents))
	}
	// Depot 1's replica is dead; the only repair target, depot 2, is down.
	r.servers[1].Close()
	r.servers[2].Close()
	s := New(Config{
		ReplicationTarget: 2,
		RenewalWindow:     5 * time.Minute,
		PruneAfter:        1,
		VerifyPerCycle:    -1,
		Locate:            fixedLocator(r.addrs[2]),
		Clock:             r.now,
	})
	if err := s.Adopt("obj", ex); err != nil {
		t.Fatal(err)
	}
	var since uint64
	if evs := lg.Events(); len(evs) > 0 {
		since = evs[len(evs)-1].Seq
	}
	// Depot 0's 10m lease falls inside the 5m renewal window.
	r.skew.Store(int64(7 * time.Minute))
	if _, err := s.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LeasesRenewed != 1 || st.RepairsAttempted != 1 || st.RepairsSucceeded != 0 {
		t.Fatalf("stats = %+v, want one renewal and one failed repair", st)
	}

	got := map[string][]map[string]string{}
	for _, ev := range lg.Events() {
		if ev.Seq <= since {
			continue
		}
		fields := map[string]string{"level": ev.Level}
		for _, f := range ev.Fields {
			fields[f.Key] = f.Value
		}
		got[ev.Name] = append(got[ev.Name], fields)
	}
	want := map[string]map[string]string{
		obs.EvStewardRenew:      {"level": "debug", "dataset": "obj", "extent": "0", "depot": r.addrs[0]},
		obs.EvStewardRepairDone: {"level": "warn", "dataset": "obj", "extent": "0", "depot": r.addrs[2], "ok": "false"},
	}
	for name, fields := range want {
		if len(got[name]) != 1 {
			t.Errorf("%d %s records, want 1: %v", len(got[name]), name, got[name])
			continue
		}
		for k, v := range fields {
			if got[name][0][k] != v {
				t.Errorf("%s %s = %q, want %q", name, k, got[name][0][k], v)
			}
		}
	}
	if fails := got[obs.EvStewardRepairDone]; len(fails) == 1 && fails[0]["err"] == "" {
		t.Errorf("failed repair record carries no err: %v", fails[0])
	}
}
