package lonviz

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/obs"
	"lonviz/internal/overload"
	"lonviz/internal/session"
)

// TestOverloadControlEndToEnd is the acceptance test for the overload
// layer under real multi-client load: 200 concurrent viewers share one
// client agent against a two-depot deployment where one depot's single
// admission slot is held for the whole run, so every request it sees is
// shed with BUSY. The fleet must still finish every script — BUSY is
// retryable-elsewhere, absorbed by replica failover — with fair
// throughput and bounded tails, while the shed, busy-rejection, and
// coalesce counters prove each overload mechanism actually engaged.
// Finally the whole stack tears down without leaking goroutines.
func TestOverloadControlEndToEnd(t *testing.T) {
	checkGoroutines(t)
	reg := obs.NewRegistry()
	params := lightfield.ScaledParams(45, 2, 8) // 2x4 sets, tiny frames
	const clients = 200
	const accessesPerClient = 4

	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		closers = nil
	}
	defer closeAll()

	// Depot 0 carries the admission gate (one slot, no queue); depot 1 is
	// the healthy replica target.
	gate := overload.NewGate(1, 0, time.Millisecond)
	var depots []string
	for i := 0; i < 2; i++ {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 26, MaxLease: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv := ibp.NewServer(d)
		srv.Obs = reg
		if i == 0 {
			srv.Admission = gate
		}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		closers = append(closers, func() { srv.Close() })
		depots = append(depots, addr)
	}

	dvsServer := dvs.NewServer("")
	dvsServer.Obs = reg
	dvsAddr, err := dvsServer.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, func() { dvsServer.Close() })
	dvsClient := &dvs.Client{Addr: dvsAddr}

	// Publish the database replicated across both depots. Workers: 1
	// keeps uploads below the gate's single slot; the slot is only
	// pinned busy after precompute.
	gen, err := lightfield.NewProceduralGenerator(params, 31)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:  "neghip",
		Gen:      gen,
		Depots:   depots,
		DVS:      dvsClient,
		Replicas: 2,
		Workers:  1,
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, func() { sa.Close() })
	if _, err := sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// From here on, depot 0 answers BUSY to everything.
	releaseSlot, err := gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, releaseSlot)

	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:    "neghip",
		Params:     params,
		DVS:        dvsClient,
		CacheBytes: 1 << 10, // tiny: nearly every move refetches, so the fleet keeps hitting depots
		Retries:    2,
		Budget:     lors.NewRetryBudget(lors.DefaultRetryRatio, lors.DefaultRetryBurst),
		Obs:        reg,
		Rand:       rand.New(rand.NewSource(17)),
	})
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, ca.Close)

	res, err := session.RunFleet(context.Background(), session.FleetOptions{
		Params:      params,
		Clients:     clients,
		Accesses:    accessesPerClient,
		Seed:        100,
		MoveTimeout: 30 * time.Second,
		NewViewer: func(i int) (*agent.Viewer, error) {
			v, err := agent.NewViewer(params, ca)
			if err != nil {
				return nil, err
			}
			v.MaxDecoded = 1
			return v, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every client finished its whole script: BUSY from the gated depot
	// is absorbed by failover to the healthy replica, never surfaced.
	for _, r := range res.Runs {
		if r.SetupErr != nil {
			t.Fatalf("client %d setup: %v", r.Client, r.SetupErr)
		}
		if len(r.Records) != accessesPerClient || r.Busy != 0 || r.Expired != 0 || r.Errors != 0 {
			t.Fatalf("client %d: %d records busy=%d expired=%d errors=%d",
				r.Client, len(r.Records), r.Busy, r.Expired, r.Errors)
		}
	}
	if got := res.Accesses(); got != clients*accessesPerClient {
		t.Fatalf("accesses = %d, want %d", got, clients*accessesPerClient)
	}

	// Fairness: every client's throughput stays within 2x of the fair
	// share of aggregate throughput — half the depot fleet being in
	// permanent overload must not starve anyone.
	fair := res.AggregateFPS() / clients
	for _, r := range res.Runs {
		if fps := r.FPS(); fps < fair/2 {
			t.Errorf("client %d fps %.2f below half fair share %.2f", r.Client, fps, fair)
		}
	}
	// Bounded tail: the slowest client's p99 move latency stays inside
	// the move deadline, with a wide margin for CI machines.
	if p99 := res.WorstP99Ms(); p99 <= 0 || p99 > 15000 {
		t.Fatalf("worst p99 = %.1f ms, want (0, 15000]", p99)
	}

	// Each overload mechanism engaged and said so in metrics.
	shed := reg.Counter(obs.Label(obs.MIBPShed, "reason", overload.ReasonQueueFull)).Value()
	if shed == 0 {
		t.Error("gated depot never shed a request")
	}
	if v := reg.Counter(obs.MLorsBusyRejections).Value(); v == 0 {
		t.Error("no BUSY rejections recorded by lors failover")
	}
	st := ca.Stats()
	if st.Coalesced == 0 {
		t.Error("no coalesced requests: 200 clients never shared a flight")
	}
	if st.BusyRejections == 0 {
		t.Errorf("agent stats: busy_rejections=%d, want > 0", st.BusyRejections)
	}
	t.Logf("fleet: %.1f aggregate fps, worst p99 %.1f ms, spread %.2f; shed=%d busy_rejections=%d coalesced=%d",
		res.AggregateFPS(), res.WorstP99Ms(), res.FairnessSpread(),
		shed, st.BusyRejections, st.Coalesced)

	// Teardown leaks nothing: the fleet's viewers, flights, and servers
	// are all gone once the closers run (checkGoroutines).
}

// TestRetryBudgetCapsAmplificationEndToEnd drives a download whose only
// replica sits behind a permanently held admission slot: the first pass
// is rejected BUSY, and the drained retry budget refuses the second pass
// instead of re-hammering the overloaded depot. The failure keeps the
// typed BUSY sentinel and the budget-exhausted counter fires.
func TestRetryBudgetCapsAmplificationEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 22, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gate := overload.NewGate(1, 0, time.Millisecond)
	srv := ibp.NewServer(d)
	srv.Obs = reg
	srv.Admission = gate
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Store the payload while the slot is free, then pin the depot busy.
	payload := []byte("overload budget e2e payload")
	cl := &ibp.Client{Addr: addr}
	caps, err := cl.Allocate(context.Background(), int64(len(payload)), time.Hour, ibp.Stable)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Store(context.Background(), caps.Write, 0, payload); err != nil {
		t.Fatal(err)
	}
	release, err := gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)

	ex := &exnode.ExNode{
		Name:     "budget-e2e",
		Length:   int64(len(payload)),
		Checksum: exnode.ChecksumOf(payload),
		Extents: []exnode.Extent{{
			Length:   int64(len(payload)),
			Checksum: exnode.ChecksumOf(payload),
			Replicas: []exnode.Replica{{Depot: addr, ReadCap: caps.Read, ManageCap: caps.Manage}},
		}},
	}
	// A budget with less than one banked token refuses the very first
	// retry pass; without it, Retries would hit the busy depot twice more.
	_, stats, err := lors.Download(context.Background(), ex, lors.DownloadOptions{
		Retries:     3,
		BackoffBase: time.Millisecond,
		Budget:      lors.NewRetryBudget(0.001, 0.5),
		Obs:         reg,
	})
	if err == nil {
		t.Fatal("download against a pinned-busy depot succeeded")
	}
	if !errors.Is(err, ibp.ErrBusy) {
		t.Fatalf("err = %v, want the typed ibp.ErrBusy preserved through the budget failure", err)
	}
	if stats.BudgetExhausted == 0 {
		t.Fatalf("stats = %+v, want BudgetExhausted > 0", stats)
	}
	if stats.BusyRejections == 0 {
		t.Fatalf("stats = %+v, want BusyRejections > 0", stats)
	}
	if v := reg.Counter(obs.MLorsRetryBudgetExhausted).Value(); v == 0 {
		t.Error("lors.retry_budget_exhausted counter never fired")
	}
	if v := reg.Counter(obs.MLorsBusyRejections).Value(); v == 0 {
		t.Error("lors.download.busy_rejections counter never fired")
	}
}
