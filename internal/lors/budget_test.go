package lors

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lonviz/internal/ibp"
	"lonviz/internal/overload"
)

func TestRetryBudgetTokenBucket(t *testing.T) {
	b := NewRetryBudget(0.5, 2)
	if !b.AllowRetry() || !b.AllowRetry() {
		t.Fatal("full bucket refused banked retries")
	}
	if b.AllowRetry() {
		t.Fatal("empty bucket allowed a retry")
	}
	b.RecordAttempt()
	if b.AllowRetry() {
		t.Fatal("half a token spent as a whole one")
	}
	b.RecordAttempt()
	if !b.AllowRetry() {
		t.Fatal("earned token refused")
	}
	// The bucket caps at burst.
	for i := 0; i < 100; i++ {
		b.RecordAttempt()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
}

func TestRetryBudgetNilAllows(t *testing.T) {
	var b *RetryBudget
	b.RecordAttempt()
	if !b.AllowRetry() {
		t.Fatal("nil budget refused a retry")
	}
}

// TestRetryBudgetCapsAmplification: with every replica dead and a large
// Retries, an empty shared budget fails extents after the first pass
// instead of burning Retries× passes of depot load.
func TestRetryBudgetCapsAmplification(t *testing.T) {
	depots := depotFarm(t, 2, 1<<20)
	data := testPayload(8*1024, 9)
	ex, err := Upload(context.Background(), "objbudget", data, UploadOptions{Depots: depots})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex.Extents {
		for j := range ex.Extents[i].Replicas {
			ex.Extents[i].Replicas[j].ReadCap = "poisoned"
		}
	}
	budget := NewRetryBudget(0.001, 1)
	if !budget.AllowRetry() {
		t.Fatal("draining the bucket")
	}
	_, stats, err := Download(context.Background(), ex, DownloadOptions{
		Retries: 10,
		Budget:  budget,
		Rand:    rand.New(rand.NewSource(0)),
	})
	if err == nil {
		t.Fatal("download of poisoned object succeeded")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("error = %v, want retry budget exhausted", err)
	}
	if stats.BudgetExhausted == 0 {
		t.Fatalf("stats = %+v, want BudgetExhausted > 0", stats)
	}
	// One first pass per extent, no retry passes: tries stay bounded by
	// the replica count instead of Retries× it.
	maxTries := 0
	for _, e := range ex.Extents {
		maxTries += len(e.Replicas)
	}
	if stats.ReplicaTries > maxTries {
		t.Fatalf("replica tries = %d > %d: budget did not clamp retries", stats.ReplicaTries, maxTries)
	}
}

// TestBusyFailsOverWithoutTrippingCircuit: a depot shedding with BUSY is
// retryable-elsewhere — the download succeeds off the replica, the busy
// depot's circuit stays closed, and the shed is accounted separately
// from failures.
func TestBusyFailsOverWithoutTrippingCircuit(t *testing.T) {
	// Two depots, one object replicated on both. Depot 0's gate (one slot,
	// no queue) is in place before it serves and admits the upload.
	gate := overload.NewGate(1, 0, 10*time.Millisecond)
	var addrs []string
	for i := 0; i < 2; i++ {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv := ibp.NewServer(d)
		if i == 0 {
			srv.Admission = gate
		}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, addr)
	}
	data := testPayload(8*1024, 11)
	ex, err := Upload(context.Background(), "objbusy", data, UploadOptions{
		Depots:   addrs,
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Depot 0 starts shedding everything: zero-slot queue, slot held.
	release, err := gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	health := NewHealthTracker(HealthConfig{})
	var totalBusy int
	for pass := 0; pass < 5; pass++ {
		got, stats, err := Download(context.Background(), ex, DownloadOptions{
			Health: health,
			Rand:   rand.New(rand.NewSource(int64(pass))),
		})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pass %d: payload mismatch", pass)
		}
		totalBusy += stats.BusyRejections
		if stats.FailedAttempts != 0 {
			t.Fatalf("pass %d: BUSY counted as failure: %+v", pass, stats)
		}
	}
	if totalBusy == 0 {
		t.Fatal("shuffle never tried the busy depot; test ineffective")
	}
	if !health.Allow(addrs[0]) {
		t.Fatal("BUSY rejections tripped the circuit breaker")
	}
}

// TestBusyTypedAcrossWire pins that the BUSY code survives the protocol
// round trip as a typed error lors can classify.
func TestBusyTypedAcrossWire(t *testing.T) {
	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := ibp.NewServer(d)
	srv.Admission = overload.NewGate(1, 0, 10*time.Millisecond)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	release, err := srv.Admission.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	cl := &ibp.Client{Addr: addr}
	if _, err := cl.Load(context.Background(), "cap", 0, 8); !errors.Is(err, ibp.ErrBusy) {
		t.Fatalf("load against shedding depot: %v, want ibp.ErrBusy", err)
	}
}
