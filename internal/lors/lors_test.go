package lors

import (
	"errors"
	"net"

	"bytes"
	"context"
	"lonviz/internal/exnode"
	"lonviz/internal/netsim"
	"math/rand"
	"testing"
	"time"

	"lonviz/internal/ibp"
)

// depotFarm starts n depots and returns their addresses.
func depotFarm(t *testing.T, n int, capacity int64) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: capacity, MaxLease: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv := ibp.NewServer(d)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	return addrs
}

func testPayload(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	depots := depotFarm(t, 3, 1<<22)
	data := testPayload(300*1024, 1) // 300 KiB over 64 KiB stripes
	ex, err := Upload(context.Background(), "obj1", data, UploadOptions{
		Depots:     depots,
		StripeSize: 64 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Length != int64(len(data)) {
		t.Errorf("exnode length = %d", ex.Length)
	}
	if len(ex.Extents) != 5 {
		t.Errorf("extents = %d, want 5", len(ex.Extents))
	}
	// Stripes must land on more than one depot.
	if len(ex.Depots()) < 2 {
		t.Errorf("striping used only %v", ex.Depots())
	}
	got, stats, err := Download(context.Background(), ex, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("download mismatch")
	}
	if stats.Bytes != int64(len(data)) || stats.ExtentFetches != 5 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestUploadReplication(t *testing.T) {
	depots := depotFarm(t, 3, 1<<22)
	data := testPayload(100*1024, 2)
	ex, err := Upload(context.Background(), "obj2", data, UploadOptions{
		Depots:     depots,
		StripeSize: 32 * 1024,
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rf := ex.ReplicationFactor(); rf != 2 {
		t.Errorf("replication factor = %d", rf)
	}
	for _, ext := range ex.Extents {
		if ext.Replicas[0].Depot == ext.Replicas[1].Depot {
			t.Error("replicas placed on the same depot")
		}
	}
}

func TestUploadValidation(t *testing.T) {
	if _, err := Upload(context.Background(), "x", []byte("d"), UploadOptions{}); err == nil {
		t.Error("no depots accepted")
	}
	if _, err := Upload(context.Background(), "x", []byte("d"), UploadOptions{
		Depots:   []string{"a:1"},
		Replicas: 2,
	}); err == nil {
		t.Error("replicas > distinct depots accepted")
	}
}

func TestUploadEmptyObject(t *testing.T) {
	depots := depotFarm(t, 1, 1024)
	ex, err := Upload(context.Background(), "empty", nil, UploadOptions{Depots: depots})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Download(context.Background(), ex, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty object downloaded %d bytes", len(got))
	}
}

func TestDownloadFailoverToReplica(t *testing.T) {
	depots := depotFarm(t, 3, 1<<22)
	data := testPayload(64*1024, 3)
	ex, err := Upload(context.Background(), "obj3", data, UploadOptions{
		Depots:     depots,
		StripeSize: 16 * 1024,
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Poison the first replica of every extent so failover must kick in.
	for i := range ex.Extents {
		ex.Extents[i].Replicas[0].ReadCap = "poisoned"
	}
	got, stats, err := Download(context.Background(), ex, DownloadOptions{
		Rand: rand.New(rand.NewSource(0)), // deterministic shuffle
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("failover download mismatch")
	}
	if stats.FailedAttempts == 0 {
		t.Error("poisoned replicas never tried; test ineffective")
	}
}

func TestDownloadAllReplicasDead(t *testing.T) {
	depots := depotFarm(t, 2, 1<<20)
	data := testPayload(8*1024, 4)
	ex, err := Upload(context.Background(), "obj4", data, UploadOptions{Depots: depots})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex.Extents {
		for j := range ex.Extents[i].Replicas {
			ex.Extents[i].Replicas[j].ReadCap = "gone"
		}
	}
	if _, _, err := Download(context.Background(), ex, DownloadOptions{}); err == nil {
		t.Error("download with dead replicas succeeded")
	}
}

func TestDownloadRaceReplicas(t *testing.T) {
	depots := depotFarm(t, 3, 1<<22)
	data := testPayload(96*1024, 5)
	ex, err := Upload(context.Background(), "obj5", data, UploadOptions{
		Depots:     depots,
		StripeSize: 32 * 1024,
		Replicas:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Download(context.Background(), ex, DownloadOptions{RaceReplicas: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("raced download mismatch")
	}
	if stats.ReplicaTries < 9 { // 3 extents x 3 replicas all launched
		t.Errorf("race tried %d replicas, want 9", stats.ReplicaTries)
	}
	// Racing with one poisoned replica still succeeds.
	for i := range ex.Extents {
		ex.Extents[i].Replicas[0].ReadCap = "poisoned"
	}
	got, _, err = Download(context.Background(), ex, DownloadOptions{RaceReplicas: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("raced download with poison mismatch")
	}
}

func TestDownloadCancellation(t *testing.T) {
	depots := depotFarm(t, 2, 1<<22)
	data := testPayload(64*1024, 6)
	ex, err := Upload(context.Background(), "obj6", data, UploadOptions{Depots: depots})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Download(ctx, ex, DownloadOptions{}); err == nil {
		t.Error("canceled download succeeded")
	}
}

func TestCopyToStagesWholeObject(t *testing.T) {
	src := depotFarm(t, 3, 1<<22)
	lanDepot := depotFarm(t, 1, 1<<22)[0]
	data := testPayload(128*1024, 8)
	ex, err := Upload(context.Background(), "obj8", data, UploadOptions{
		Depots:     src,
		StripeSize: 32 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := CopyTo(context.Background(), ex, lanDepot, CopyOptions{Lease: time.Minute, Policy: ibp.Volatile})
	if err != nil {
		t.Fatal(err)
	}
	if deps := staged.Depots(); len(deps) != 1 || deps[0] != lanDepot {
		t.Errorf("staged depots = %v", deps)
	}
	got, _, err := Download(context.Background(), staged, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("staged copy mismatch")
	}
}

func TestCopyToSurvivesOneDeadSource(t *testing.T) {
	src := depotFarm(t, 2, 1<<22)
	lanDepot := depotFarm(t, 1, 1<<22)[0]
	data := testPayload(32*1024, 9)
	ex, err := Upload(context.Background(), "obj9", data, UploadOptions{
		Depots:     src,
		StripeSize: 16 * 1024,
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Poison one replica per extent; CopyTo must fail over to the other.
	for i := range ex.Extents {
		ex.Extents[i].Replicas[0].ReadCap = "poisoned"
	}
	staged, err := CopyTo(context.Background(), ex, lanDepot, CopyOptions{Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Download(context.Background(), staged, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("failover staging mismatch")
	}
}

// A stage that fails part way leaves the target depot holding what it held
// before: the failed extent's allocation and those of the extents staged
// ahead of it are freed.
func TestFailedCopyToFreesItsAllocations(t *testing.T) {
	src := depotFarm(t, 2, 1<<22)
	lanDepot := depotFarm(t, 1, 1<<22)[0]
	ex, err := Upload(context.Background(), "obj9b", testPayload(64*1024, 9), UploadOptions{
		Depots:     src,
		StripeSize: 16 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No source can copy the third extent.
	third := ex.SortedExtents()[2].Offset
	for i := range ex.Extents {
		if ex.Extents[i].Offset == third {
			ex.Extents[i].Replicas[0].ReadCap = "poisoned"
		}
	}
	target := &ibp.Client{Addr: lanDepot}
	_, _, before, err := target.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CopyTo(context.Background(), ex, lanDepot, CopyOptions{Lease: time.Minute}); err == nil {
		t.Fatal("staging with an uncopyable extent succeeded")
	}
	_, _, after, err := target.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("target holds %d allocations after the failed stage, %d before", after, before)
	}
}

func TestUploadSkipsFullDepot(t *testing.T) {
	// One depot too small to take anything, one large: upload succeeds by
	// walking past the refusal.
	small := depotFarm(t, 1, 10)
	big := depotFarm(t, 1, 1<<22)
	data := testPayload(16*1024, 10)
	ex, err := Upload(context.Background(), "obj10", data, UploadOptions{
		Depots:     []string{small[0], big[0]},
		StripeSize: 8 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ex.Depots() {
		if d == small[0] {
			t.Error("stripe placed on undersized depot")
		}
	}
}

// depotRig starts one depot and returns its handle, address, and server so
// tests can inspect accounting or take the depot down.
func depotRig(t *testing.T, capacity int64) (*ibp.Depot, string, *ibp.Server) {
	t.Helper()
	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: capacity, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := ibp.NewServer(d)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return d, addr, srv
}

func TestUploadWritesExtentChecksums(t *testing.T) {
	depots := depotFarm(t, 2, 1<<22)
	data := testPayload(100*1024, 20)
	ex, err := Upload(context.Background(), "ck", data, UploadOptions{
		Depots:     depots,
		StripeSize: 32 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range ex.SortedExtents() {
		if ext.Checksum == "" {
			t.Fatalf("extent at %d has no checksum", ext.Offset)
		}
		want := exnode.ChecksumOf(data[ext.Offset : ext.Offset+ext.Length])
		if ext.Checksum != want {
			t.Errorf("extent at %d checksum = %s, want %s", ext.Offset, ext.Checksum, want)
		}
	}
	if ex.Checksum != exnode.ChecksumOf(data) {
		t.Errorf("object checksum = %s", ex.Checksum)
	}
}

func TestDownloadRejectsCorruptPayload(t *testing.T) {
	depots := depotFarm(t, 1, 1<<22)
	data := testPayload(24*1024, 21)
	ex, err := Upload(context.Background(), "corrupt-all", data, UploadOptions{
		Depots:     depots,
		StripeSize: 8 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every connection to the only depot silently flips a payload byte:
	// without a clean replica the download must fail, not return garbage.
	fd := netsim.NewFaultDialer(nil, 1)
	fd.SetFault(depots[0], netsim.FaultProfile{CorruptProb: 1})
	_, stats, err := Download(context.Background(), ex, DownloadOptions{Dialer: fd})
	if err == nil {
		t.Fatal("corrupted download succeeded")
	}
	if !errors.Is(err, exnode.ErrChecksum) {
		t.Errorf("error = %v, want checksum mismatch", err)
	}
	if stats.ChecksumErrors == 0 {
		t.Errorf("stats = %+v, expected checksum errors", stats)
	}
}

func TestDownloadFailsOverOnCorruption(t *testing.T) {
	depots := depotFarm(t, 2, 1<<22)
	data := testPayload(128*1024, 22)
	ex, err := Upload(context.Background(), "corrupt-one", data, UploadOptions{
		Depots:     depots,
		StripeSize: 8 * 1024, // 16 extents, each replicated on both depots
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One depot corrupts every payload; the other is clean. Every extent
	// must come back checksum-clean via failover, and with 16 extents the
	// seeded shuffle is guaranteed to try the corrupt depot first at least
	// once, so the corruption path is exercised.
	fd := netsim.NewFaultDialer(nil, 2)
	fd.SetFault(depots[0], netsim.FaultProfile{CorruptProb: 1})
	got, stats, err := Download(context.Background(), ex, DownloadOptions{
		Dialer:      fd,
		Parallelism: 1,
		Rand:        rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("failover download mismatch")
	}
	if stats.ChecksumErrors == 0 || stats.FailedAttempts == 0 {
		t.Errorf("stats = %+v, expected detected corruption and failovers", stats)
	}
}

func TestDownloadBackoffBetweenPasses(t *testing.T) {
	depots := depotFarm(t, 1, 1<<20)
	data := testPayload(4*1024, 23)
	ex, err := Upload(context.Background(), "backoff", data, UploadOptions{Depots: depots})
	if err != nil {
		t.Fatal(err)
	}
	ex.Extents[0].Replicas[0].ReadCap = "poisoned"
	start := time.Now()
	_, stats, err := Download(context.Background(), ex, DownloadOptions{
		Retries:     3,
		BackoffBase: 40 * time.Millisecond,
		BackoffMax:  time.Second,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("poisoned download succeeded")
	}
	if stats.ReplicaTries != 3 {
		t.Errorf("tries = %d, want 3 passes", stats.ReplicaTries)
	}
	// Two backoffs with jitter in [d/2, d): pass 2 waits >= 20ms, pass 3
	// waits >= 40ms.
	if elapsed < 60*time.Millisecond {
		t.Errorf("3 passes finished in %v; backoff not applied", elapsed)
	}
}

func TestDownloadBackoffHonorsCancellation(t *testing.T) {
	depots := depotFarm(t, 1, 1<<20)
	data := testPayload(4*1024, 24)
	ex, err := Upload(context.Background(), "backoff-cancel", data, UploadOptions{Depots: depots})
	if err != nil {
		t.Fatal(err)
	}
	ex.Extents[0].Replicas[0].ReadCap = "poisoned"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = Download(ctx, ex, DownloadOptions{
		Retries:     10,
		BackoffBase: 10 * time.Second, // would take ~ forever without ctx
	})
	if err == nil {
		t.Fatal("cancelled download succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; backoff ignored ctx", elapsed)
	}
}

func TestDownloadCircuitBreakerSkipsOpenDepot(t *testing.T) {
	depots := depotFarm(t, 3, 1<<22)
	data := testPayload(96*1024, 25)
	ex, err := Upload(context.Background(), "breaker", data, UploadOptions{
		Depots:     depots,
		StripeSize: 16 * 1024,
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Now()
	health := NewHealthTracker(HealthConfig{
		FailureThreshold: 1,
		Cooldown:         time.Hour,
		Now:              func() time.Time { return clock },
	})
	fd := netsim.NewFaultDialer(nil, 3)
	fd.Kill(depots[0])
	opts := DownloadOptions{Dialer: fd, Health: health, Rand: rand.New(rand.NewSource(1))}
	got, _, err := Download(context.Background(), ex, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("download mismatch with one dead depot")
	}
	if !health.Open(depots[0]) {
		t.Fatal("dead depot's circuit never opened")
	}
	// With the circuit open, further downloads send zero requests to the
	// dead depot for the whole cooldown.
	before := fd.Dials(depots[0])
	for i := 0; i < 5; i++ {
		got, stats, err := Download(context.Background(), ex, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("download mismatch during cooldown")
		}
		if stats.Skipped == 0 {
			t.Errorf("run %d: stats = %+v, expected skipped replicas", i, stats)
		}
	}
	if after := fd.Dials(depots[0]); after != before {
		t.Errorf("circuit-open depot dialed %d times during cooldown", after-before)
	}
	// After the cooldown the depot is probed again (half-open) and, being
	// healthy again, closes its circuit.
	fd.Revive(depots[0])
	clock = clock.Add(2 * time.Hour)
	if !health.Allow(depots[0]) {
		t.Fatal("cooldown expiry did not re-admit the depot")
	}
	if _, _, err := Download(context.Background(), ex, opts); err != nil {
		t.Fatal(err)
	}
}

// TestDownloadProbesWhenEveryCircuitIsOpen: both replicas' circuits are
// open, one depot is dead and the other alive. The extent must still load,
// through one probe to the depot whose cooldown ends soonest (the live
// one); the dead depot, still cooling down, is never dialed.
func TestDownloadProbesWhenEveryCircuitIsOpen(t *testing.T) {
	depots := depotFarm(t, 2, 1<<22)
	data := testPayload(48*1024, 26)
	ex, err := Upload(context.Background(), "all-open", data, UploadOptions{
		Depots:     depots,
		StripeSize: 16 * 1024,
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	alive, dead := depots[0], depots[1]
	health, clock := newTestTracker(1, time.Hour)
	health.ReportFailure(alive)
	clock.advance(time.Second)
	health.ReportFailure(dead)
	if !health.Open(alive) || !health.Open(dead) {
		t.Fatal("setup: both circuits should be open")
	}
	fd := netsim.NewFaultDialer(nil, 5)
	fd.Kill(dead)
	got, stats, err := Download(context.Background(), ex, DownloadOptions{
		Dialer: fd, Health: health, Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatalf("download with every circuit open and one depot alive: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("download mismatch")
	}
	if health.Open(alive) {
		t.Error("a successful probe left the live depot's circuit open")
	}
	if n := fd.Dials(dead); n != 0 {
		t.Errorf("dead depot dialed %d times during its cooldown", n)
	}
	if stats.FailedAttempts != 0 {
		t.Errorf("stats = %+v, want no failed attempts", stats)
	}
}

func TestRaceReplicasSkipsOpenCircuits(t *testing.T) {
	depots := depotFarm(t, 3, 1<<22)
	data := testPayload(32*1024, 26)
	ex, err := Upload(context.Background(), "race-breaker", data, UploadOptions{
		Depots:   depots,
		Replicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	health := NewHealthTracker(HealthConfig{FailureThreshold: 1, Cooldown: time.Hour})
	health.ReportFailure(depots[0]) // opens immediately at threshold 1
	fd := netsim.NewFaultDialer(nil, 4)
	got, stats, err := Download(context.Background(), ex, DownloadOptions{
		Dialer:       fd,
		RaceReplicas: true,
		Health:       health,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("raced download mismatch")
	}
	if stats.Skipped == 0 {
		t.Errorf("stats = %+v, expected the open-circuit replica skipped", stats)
	}
	if n := fd.Dials(depots[0]); n != 0 {
		t.Errorf("open-circuit depot dialed %d times by the race", n)
	}
}

// storeFailDialer passes connections through but kills any on which a
// request starting with STORE is written — allocations succeed, stores
// fail, FREEs (on a redialed connection) succeed.
type storeFailDialer struct{}

func (storeFailDialer) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &storeFailConn{Conn: c}, nil
}

type storeFailConn struct {
	net.Conn
}

func (c *storeFailConn) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte("STORE")) {
		c.Conn.Close()
		return 0, errors.New("injected store failure")
	}
	return c.Conn.Write(b)
}

func TestUploadFreesOrphanedAllocationOnStoreFailure(t *testing.T) {
	bad, badAddr, _ := depotRig(t, 1<<22)
	_, goodAddr, _ := depotRig(t, 1<<22)
	data := testPayload(8*1024, 27)
	// Stores to the bad depot fail after its allocation succeeded; the
	// stripe must free the orphan and place the replica on the good depot.
	// Only the bad depot routes through the store-killing dialer.
	fd := routeDialer{badAddr: storeFailDialer{}}
	ex, err := Upload(context.Background(), "orphan", data, UploadOptions{
		Depots: []string{badAddr, goodAddr},
		Dialer: fd,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ex.Depots() {
		if d == badAddr {
			t.Error("replica recorded on the store-failing depot")
		}
	}
	if st := bad.Stat(); st.Used != 0 || st.Allocations != 0 {
		t.Errorf("orphaned allocation leaked: used=%d allocs=%d", st.Used, st.Allocations)
	}
}

// routeDialer sends one address through a special dialer and everything
// else over plain TCP.
type routeDialer map[string]ibp.Dialer

func (r routeDialer) Dial(addr string) (net.Conn, error) {
	if d, ok := r[addr]; ok {
		return d.Dial(addr)
	}
	return net.Dial("tcp", addr)
}

func TestDownloadCancellationMidDispatch(t *testing.T) {
	depots := depotFarm(t, 2, 1<<24)
	data := testPayload(512*1024, 28)
	ex, err := Upload(context.Background(), "cancel-mid", data, UploadOptions{
		Depots:     depots,
		StripeSize: 16 * 1024, // 32 extents
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel while extents are still queued behind the parallelism gate;
	// the dispatcher must drain and report ctx.Err(), not deadlock.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var derr error
	go func() {
		defer close(done)
		_, _, derr = Download(ctx, ex, DownloadOptions{Parallelism: 1})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled download never returned")
	}
	if derr == nil {
		t.Skip("download finished before cancellation; nothing to assert")
	}
	if !errors.Is(derr, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", derr)
	}
}

func TestFreeDepotDownReportsError(t *testing.T) {
	_, liveAddr, _ := depotRig(t, 1<<22)
	_, deadAddr, deadSrv := depotRig(t, 1<<22)
	data := testPayload(8*1024, 32)
	ex, err := Upload(context.Background(), "free-partial", data, UploadOptions{
		Depots:     []string{liveAddr, deadAddr},
		StripeSize: 8 * 1024,
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadSrv.Close()
	if err := Free(context.Background(), ex, nil); err == nil {
		t.Error("free with a dead depot reported total success")
	}
	// The live depot's replica must be gone despite the dead one failing.
	live := 0
	for _, ext := range ex.Extents {
		for _, rep := range ext.Replicas {
			if rep.Depot != liveAddr {
				continue
			}
			live++
			cl := &ibp.Client{Addr: rep.Depot, Timeout: 2 * time.Second}
			if _, err := cl.Load(context.Background(), rep.ReadCap, rep.AllocOffset, 1); err == nil {
				t.Error("replica still readable after Free")
			}
		}
	}
	if live == 0 {
		t.Fatal("test built no replicas on the live depot")
	}
}

func TestFreeMissingManageCapsIsNoop(t *testing.T) {
	depots := depotFarm(t, 1, 1<<20)
	data := testPayload(4*1024, 33)
	ex, err := Upload(context.Background(), "free-nomanage", data, UploadOptions{Depots: depots})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex.Extents {
		for j := range ex.Extents[i].Replicas {
			ex.Extents[i].Replicas[j].ManageCap = ""
		}
	}
	if err := Free(context.Background(), ex, nil); err != nil {
		t.Errorf("free without manage caps errored: %v", err)
	}
	// Nothing was freed: data still downloads.
	got, _, err := Download(context.Background(), ex, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("payload gone after no-op free")
	}
}

func TestUploadRecordsLeaseExpiry(t *testing.T) {
	depots := depotFarm(t, 2, 1<<22)
	data := testPayload(32*1024, 21)
	before := time.Now()
	ex, err := Upload(context.Background(), "obj21", data, UploadOptions{
		Depots:     depots,
		StripeSize: 16 * 1024,
		Replicas:   2,
		Lease:      10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every placed replica carries a recorded expiry near now+lease (the
	// client-side estimate is conservative: taken before allocation).
	lo := before.Add(9 * time.Minute)
	hi := time.Now().Add(11 * time.Minute)
	for _, x := range ex.Extents {
		for _, r := range x.Replicas {
			exp := r.Expiry()
			if exp.IsZero() {
				t.Fatalf("replica on %s has no recorded expiry", r.Depot)
			}
			if exp.Before(lo) || exp.After(hi) {
				t.Errorf("replica expiry %v outside [%v, %v]", exp, lo, hi)
			}
		}
	}
	if h := ex.LeaseHorizon(); h.IsZero() || h.Before(lo) {
		t.Errorf("lease horizon = %v", h)
	}
}

func TestDownloadPreferOrdersReplicas(t *testing.T) {
	depots := depotFarm(t, 2, 1<<22)
	data := testPayload(128*1024, 23)
	ex, err := Upload(context.Background(), "prefer", data, UploadOptions{
		Depots:     depots,
		StripeSize: 8 * 1024, // 16 extents, each replicated on both depots
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// depots[0] corrupts every payload. With a Prefer score marking it
	// expensive (as obs.DepotLatencyBias would after a latency regression),
	// every extent must be served by depots[1] on the first try — the bias
	// overrides the shuffle for all 16 extents across any seed.
	fd := netsim.NewFaultDialer(nil, 3)
	fd.SetFault(depots[0], netsim.FaultProfile{CorruptProb: 1})
	for seed := int64(1); seed <= 5; seed++ {
		got, stats, err := Download(context.Background(), ex, DownloadOptions{
			Dialer:      fd,
			Parallelism: 1,
			Rand:        rand.New(rand.NewSource(seed)),
			Prefer: func(depot string) float64 {
				if depot == depots[0] {
					return 1000 // slow depot: avoid
				}
				return 0 // no history: no penalty
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("seed %d: payload mismatch", seed)
		}
		if stats.FailedAttempts != 0 || stats.ChecksumErrors != 0 {
			t.Errorf("seed %d: stats = %+v, biased download still touched the corrupt depot", seed, stats)
		}
	}
}

// TestChecksumFailureOpensCircuit pins the breaker's checksum decision
// (DESIGN.md §6): a payload that fails its extent checksum counts as a
// failure of the depot that sent it, the same as a refused dial. A depot
// that corrupts every payload has its circuit opened after the threshold,
// mid-download, and the next download skips it.
func TestChecksumFailureOpensCircuit(t *testing.T) {
	depots := depotFarm(t, 2, 1<<22)
	data := testPayload(128*1024, 26)
	ex, err := Upload(context.Background(), "checksum-breaker", data, UploadOptions{
		Depots:     depots,
		StripeSize: 8 * 1024, // 16 extents, each replicated on both depots
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 3
	clock := time.Now()
	health := NewHealthTracker(HealthConfig{
		FailureThreshold: threshold,
		Cooldown:         time.Hour,
		Now:              func() time.Time { return clock },
	})
	fd := netsim.NewFaultDialer(nil, 4)
	fd.SetFault(depots[0], netsim.FaultProfile{CorruptProb: 1})
	opts := DownloadOptions{
		Dialer:      fd,
		Health:      health,
		Parallelism: 1,
		Rand:        rand.New(rand.NewSource(1)),
		// The corrupting depot is every extent's first choice, so only its
		// circuit keeps the download away from it.
		Prefer: func(depot string) float64 {
			if depot == depots[0] {
				return 0
			}
			return 1000
		},
	}
	got, stats, err := Download(context.Background(), ex, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("download mismatch")
	}
	if stats.ChecksumErrors != threshold || stats.FailedAttempts != threshold {
		t.Errorf("stats = %+v, want %d checksum errors, each a failed attempt", stats, threshold)
	}
	if !health.Open(depots[0]) {
		t.Fatal("checksum failures did not open the corrupting depot's circuit")
	}
	if stats.Skipped != len(ex.Extents)-threshold {
		t.Errorf("skipped %d replicas, want the %d extents after the circuit opened", stats.Skipped, len(ex.Extents)-threshold)
	}
	before := fd.Dials(depots[0])
	got, stats, err = Download(context.Background(), ex, opts)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("second download: %v", err)
	}
	if stats.ChecksumErrors != 0 || stats.Skipped != len(ex.Extents) {
		t.Errorf("second download: stats = %+v, want the corrupting depot skipped for every extent", stats)
	}
	if after := fd.Dials(depots[0]); after != before {
		t.Errorf("circuit-open depot dialed %d times", after-before)
	}
}
