package lonviz

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/netsim"
	"lonviz/internal/obs"
	"lonviz/internal/obs/slo"
	"lonviz/internal/steward"
)

// sloHTTPGet fetches a stack endpoint and returns status + body.
func sloHTTPGet(t *testing.T, rawURL string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestSLOAlertDrivenRepairEndToEnd is the acceptance test for the
// alert-driven control loop: a depot turns slow (latency spikes on every
// connection) and also holds an at-rest corrupt replica of a
// steward-managed object. Browsing traffic feeds the TSDB, the
// depot-latency SLO fires, /healthz degrades naming the rule, the
// steward's alert subscription runs a targeted payload audit of the
// suspect depot — repairing the corruption long before its hourly scan
// would — and once the latency fault lifts the alert resolves and
// /healthz recovers. Every stage is asserted from the operator surface:
// /debug/alerts, /debug/tsdb, and the structured event log.
func TestSLOAlertDrivenRepairEndToEnd(t *testing.T) {
	params := lightfield.ScaledParams(45, 2, 6) // 2x4 sets

	// Three depots: 0 will turn slow and holds the corrupt replica, 1 is
	// healthy, 2 is the repair spare.
	var addrs []string
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
		addrs = append(addrs, addr)
	}

	dvsServer := dvs.NewServer("")
	dvsAddr, err := dvsServer.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dvsServer.Close() })
	dvsClient := &dvs.Client{Addr: dvsAddr}

	// Publish the browsable database across depots 0 and 1.
	gen, err := lightfield.NewProceduralGenerator(params, 31)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:  "neghip",
		Gen:      gen,
		Depots:   []string{addrs[0], addrs[1]},
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

	// The steward-managed object: replica on depot 0 holds flipped bytes,
	// so only a payload audit can find the damage.
	good := make([]byte, 8*1024)
	rnd := rand.New(rand.NewSource(7))
	rnd.Read(good)
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	storeReplica := func(addr string, payload []byte) exnode.Replica {
		cl := &ibp.Client{Addr: addr}
		caps, err := cl.Allocate(context.Background(), int64(len(payload)), time.Hour, ibp.Stable)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Store(context.Background(), caps.Write, 0, payload); err != nil {
			t.Fatal(err)
		}
		return exnode.Replica{Depot: addr, ReadCap: caps.Read, ManageCap: caps.Manage}
	}
	ex := &exnode.ExNode{
		Name:   "slo-e2e-obj",
		Length: int64(len(good)),
		Extents: []exnode.Extent{{
			Offset:   0,
			Length:   int64(len(good)),
			Checksum: exnode.ChecksumOf(good),
			Replicas: []exnode.Replica{storeReplica(addrs[0], bad), storeReplica(addrs[1], good)},
		}},
	}

	// The observability stack, exactly as -metrics-addr wires it, with a
	// tight sampling interval and a low-threshold critical rule so real
	// wall-clock hysteresis plays out in milliseconds.
	rules := fmt.Sprintf(`{"rules": [{
		"name": "depot-latency-e2e",
		"severity": "critical",
		"kind": "latency_quantile",
		"metric": %q,
		"quantile": 0.9,
		"threshold_ms": 40,
		"window": "2s",
		"for": "50ms",
		"clear_after": "200ms",
		"min_count": 3
	}]}`, obs.MIBPDepotMs)
	rulesPath := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(rulesPath, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1024)
	logger := obs.NewLogger(io.Discard, 256)
	stack, err := slo.Start(slo.Options{
		Addr:           "127.0.0.1:0",
		Registry:       reg,
		Tracer:         tracer,
		RulesPath:      rulesPath,
		SampleInterval: 25 * time.Millisecond,
		Logger:         logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close(context.Background()) })
	stack.MarkReady()
	base := "http://" + stack.Addr()

	// The steward with an hour-long scan interval: only the alert bridge
	// can make it act within this test's lifetime. Its own depot clients
	// dial plain TCP (a repair agent co-located with the depots), so the
	// latency fault below slows browsers, not the repair.
	stw := steward.New(steward.Config{
		ReplicationTarget: 2,
		ScanInterval:      time.Hour,
		VerifyPerCycle:    -1,
		Obs:               obs.NewRegistry(),
		Locate: func(ctx context.Context, n int, minFree int64, exclude map[string]bool) ([]string, error) {
			return []string{addrs[2]}, nil
		},
	})
	if err := stw.Adopt("slo-e2e-obj", ex); err != nil {
		t.Fatal(err)
	}
	stack.Subscribe(steward.AlertTrigger(stw))
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	runDone := make(chan error, 1)
	go func() { runDone <- stw.Run(runCtx) }()

	// The fault: every reply from depot 0 eats a 150ms latency spike.
	fd := netsim.NewFaultDialer(nil, 4245)
	fd.SetFault(addrs[0], netsim.FaultProfile{SpikeProb: 1, Spike: 150 * time.Millisecond})

	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:     "neghip",
		Params:      params,
		DVS:         dvsClient,
		Dialer:      fd,
		CacheBytes:  1 << 10, // tiny: every browse refetches from depots
		Retries:     4,
		Parallelism: 1,
		Obs:         reg,
		Rand:        rand.New(rand.NewSource(17)),
		// No ReplicaBias here on purpose: the bias would steer the browse
		// traffic off the slow depot and starve the rule's window. The
		// bias path has its own test (TestDownloadPreferOrdersReplicas).
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	sets := params.AllViewSets()
	browse := func() {
		id := sets[rnd.Intn(len(sets))]
		if _, _, err := ca.GetViewSet(context.Background(), id); err != nil {
			t.Fatalf("GetViewSet(%v): %v", id, err)
		}
	}

	type alertsDoc struct {
		Firing int         `json:"firing"`
		Alerts []slo.Alert `json:"alerts"`
	}
	fetchAlerts := func() alertsDoc {
		_, body := sloHTTPGet(t, base+"/debug/alerts")
		var doc alertsDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/debug/alerts unparseable: %v\n%s", err, body)
		}
		return doc
	}

	// Stage 1: browse against the slow depot until the SLO fires.
	var firing *slo.Alert
	deadline := time.Now().Add(20 * time.Second)
	for firing == nil {
		if time.Now().After(deadline) {
			_, idx := sloHTTPGet(t, base+"/debug/tsdb")
			t.Fatalf("depot-latency alert never fired; alerts: %+v\ntsdb index: %s", fetchAlerts(), idx)
		}
		browse()
		doc := fetchAlerts()
		for i, a := range doc.Alerts {
			if a.Rule == "depot-latency-e2e" && a.State == slo.StateFiring {
				firing = &doc.Alerts[i]
			}
		}
	}
	if firing.Labels["depot"] != addrs[0] {
		t.Fatalf("alert labels = %v, want depot=%s", firing.Labels, addrs[0])
	}
	if firing.Severity != slo.SeverityCritical {
		t.Fatalf("alert severity = %q, want critical", firing.Severity)
	}

	// Stage 2: /healthz degrades to 503 and names the firing rule.
	code, body := sloHTTPGet(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d during critical alert, want 503\n%s", code, body)
	}
	if !strings.Contains(string(body), "depot-latency-e2e") {
		t.Fatalf("/healthz reason does not name the rule:\n%s", body)
	}

	// Stage 3: the alert subscription audits the suspect depot and
	// repairs the corrupt replica — with the periodic scan an hour away.
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := stw.Stats()
		if st.AlertAudits >= 1 && st.RepairsSucceeded >= 1 {
			if st.VerifyFailures < 1 {
				t.Fatalf("audit repaired without a payload verify failure: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alert-triggered audit never repaired: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cur := stw.ExNode("slo-e2e-obj")
	for _, d := range cur.Depots() {
		if d == addrs[0] {
			t.Error("corrupt replica on the suspect depot survived the targeted audit")
		}
	}
	got, _, err := lors.Download(context.Background(), cur, lors.DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, good) {
		t.Error("post-repair download does not match the original payload")
	}

	// Stage 4: the TSDB retained the story — the suspect depot's latency
	// series has history and a breached p99 over the firing window.
	series := obs.Label(obs.MIBPDepotMs, "depot", addrs[0])
	q := url.Values{"name": {series}, "since": {"30s"}, "agg": {"raw"}}
	_, body = sloHTTPGet(t, base+"/debug/tsdb?"+q.Encode())
	var rawResp struct {
		Points []struct {
			V float64 `json:"v"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &rawResp); err != nil {
		t.Fatalf("/debug/tsdb unparseable: %v\n%s", err, body)
	}
	if len(rawResp.Points) < 2 {
		t.Fatalf("/debug/tsdb raw query returned %d points, want >= 2", len(rawResp.Points))
	}
	q.Set("agg", "p99")
	q.Set("window", "2s")
	_, body = sloHTTPGet(t, base+"/debug/tsdb?"+q.Encode())
	var qResp struct {
		Points []struct {
			V float64 `json:"v"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &qResp); err != nil {
		t.Fatalf("/debug/tsdb p99 unparseable: %v\n%s", err, body)
	}
	var maxP99 float64
	for _, p := range qResp.Points {
		if p.V > maxP99 {
			maxP99 = p.V
		}
	}
	if maxP99 < 40 {
		t.Errorf("retained p99 peak = %.1fms, expected the 40ms threshold breached\nbody: %s", maxP99, body)
	}

	// Stage 5: lift the fault and browse clean traffic until the alert
	// resolves and /healthz recovers.
	fd.SetFault(addrs[0], netsim.FaultProfile{})
	deadline = time.Now().Add(20 * time.Second)
	for {
		browse()
		doc := fetchAlerts()
		if doc.Firing == 0 {
			resolved := false
			for _, a := range doc.Alerts {
				if a.Rule == "depot-latency-e2e" && a.State == slo.StateResolved {
					resolved = true
				}
			}
			if resolved {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("alert never resolved after the fault lifted; alerts: %+v", doc)
		}
	}
	code, body = sloHTTPGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d after resolution, want 200\n%s", code, body)
	}

	// Stage 6: the structured event log carries the full transition
	// history, trace-correlated to the evaluation spans.
	var sawFiring, sawResolved bool
	for _, ev := range logger.Events() {
		if ev.Name != obs.EvSLOAlert {
			continue
		}
		fields := map[string]string{}
		for _, f := range ev.Fields {
			fields[f.Key] = f.Value
		}
		if fields["rule"] != "depot-latency-e2e" {
			continue
		}
		switch fields["state"] {
		case slo.StateFiring:
			sawFiring = true
			if ev.TraceID == 0 {
				t.Error("firing slo.alert event carries no trace ID")
			}
		case slo.StateResolved:
			sawResolved = true
		}
	}
	if !sawFiring || !sawResolved {
		t.Errorf("event log transitions: firing=%v resolved=%v, want both", sawFiring, sawResolved)
	}
	var sawTrigger bool
	for _, ev := range obs.DefaultLogger().Events() {
		if ev.Name == obs.EvStewardAlertTrigger {
			sawTrigger = true
		}
	}
	if !sawTrigger {
		t.Error("no steward.alert_trigger event in the log")
	}

	cancelRun()
	if err := <-runDone; err != nil && err != context.Canceled {
		t.Fatalf("steward Run: %v", err)
	}
}
