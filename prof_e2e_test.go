package lonviz

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/netsim"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
	"lonviz/internal/obs/slo"
)

// TestFlightRecorderCaptureEndToEnd is the acceptance test for the
// flight recorder: a depot turns slow under chaos faults, the critical
// depot-latency SLO fires, and the recorder automatically captures
// exactly one forensic bundle within the cooldown window. The bundle is
// then pulled entirely through the operator surface (/debug/capture) and
// must hold a non-empty goroutine dump, a CPU profile whose string table
// carries the hot-path `class` labels, and the retained TSDB window.
func TestFlightRecorderCaptureEndToEnd(t *testing.T) {
	params := lightfield.ScaledParams(45, 2, 6) // 2x4 sets

	var addrs []string
	for i := 0; i < 2; i++ {
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

	gen, err := lightfield.NewProceduralGenerator(params, 33)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:  "neghip",
		Gen:      gen,
		Depots:   addrs,
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

	// The stack as -metrics-addr wires it, with a tight sampling interval,
	// a low-threshold critical rule, a sub-second capture profile, and a
	// cooldown far longer than the test — so a flapping alert can record
	// at most one bundle.
	rules := fmt.Sprintf(`{"rules": [{
		"name": "depot-latency-capture-e2e",
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
	stack, err := slo.Start(slo.Options{
		Addr:              "127.0.0.1:0",
		Registry:          reg,
		Tracer:            obs.NewTracer(1024),
		Logger:            obs.NewLogger(io.Discard, 256),
		RulesPath:         rulesPath,
		SampleInterval:    25 * time.Millisecond,
		CaptureCPUProfile: 400 * time.Millisecond,
		CaptureCooldown:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close(context.Background()) })
	stack.MarkReady()
	base := "http://" + stack.Addr()

	// Labeled CPU load for the whole incident: the capture's profile
	// window must observe samples tagged by the prof wrappers. The browse
	// loop below is mostly network wait, so these spinners guarantee the
	// statistical CPU sampler sees labeled on-CPU time.
	var spinStop atomic.Bool
	var spinners sync.WaitGroup
	for i := 0; i < 2; i++ {
		spinners.Add(1)
		go func() {
			defer spinners.Done()
			prof.Do(context.Background(), func(context.Context) {
				var acc uint64
				for !spinStop.Load() {
					for j := 0; j < 1<<14; j++ {
						acc += uint64(j) * 2654435761
					}
				}
				_ = acc
			}, prof.KeyClass, "e2e_load")
		}()
	}
	t.Cleanup(func() {
		spinStop.Store(true)
		spinners.Wait()
	})

	// The chaos fault: every reply from depot 0 eats a latency spike.
	fd := netsim.NewFaultDialer(nil, 9431)
	fd.SetFault(addrs[0], netsim.FaultProfile{SpikeProb: 1, Spike: 150 * time.Millisecond})

	rnd := rand.New(rand.NewSource(19))
	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset:     "neghip",
		Params:      params,
		DVS:         dvsClient,
		Dialer:      fd,
		CacheBytes:  1 << 10,
		Retries:     4,
		Parallelism: 1,
		Obs:         reg,
		Rand:        rand.New(rand.NewSource(23)),
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

	// Stage 1: browse against the slow depot until the critical SLO fires.
	type alertsDoc struct {
		Firing int         `json:"firing"`
		Alerts []slo.Alert `json:"alerts"`
	}
	deadline := time.Now().Add(20 * time.Second)
	fired := false
	for !fired {
		if time.Now().After(deadline) {
			t.Fatal("depot-latency alert never fired")
		}
		browse()
		_, body := sloHTTPGet(t, base+"/debug/alerts")
		var doc alertsDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/debug/alerts unparseable: %v\n%s", err, body)
		}
		for _, a := range doc.Alerts {
			if a.Rule == "depot-latency-capture-e2e" && a.State == slo.StateFiring {
				fired = true
			}
		}
	}

	// Stage 2: the firing transition triggered an automatic capture; the
	// bundle lands once its CPU-profile window elapses. Keep browsing so
	// the profiled window is full of real labeled traffic too.
	type indexDoc struct {
		Bundles []struct {
			ID      string         `json:"id"`
			Trigger string         `json:"trigger"`
			Files   map[string]int `json:"files"`
		} `json:"bundles"`
	}
	fetchIndex := func() indexDoc {
		_, body := sloHTTPGet(t, base+"/debug/capture")
		var doc indexDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/debug/capture unparseable: %v\n%s", err, body)
		}
		return doc
	}
	deadline = time.Now().Add(20 * time.Second)
	var idx indexDoc
	for len(idx.Bundles) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no capture bundle appeared after the alert fired")
		}
		browse()
		idx = fetchIndex()
	}
	bundle := idx.Bundles[0]
	if bundle.Trigger != "alert:depot-latency-capture-e2e" {
		t.Fatalf("bundle trigger = %q, want alert:depot-latency-capture-e2e", bundle.Trigger)
	}

	// Stage 3: exactly one bundle within the cooldown — keep the fault and
	// the browse traffic running (the alert stays hot or re-fires) and the
	// minute-long cooldown must suppress any second capture.
	settle := time.Now().Add(1 * time.Second)
	for time.Now().Before(settle) {
		browse()
	}
	if got := fetchIndex(); len(got.Bundles) != 1 {
		t.Fatalf("cooldown violated: %d bundles within the window, want exactly 1", len(got.Bundles))
	}

	// Stage 4: pull the forensics through the operator surface.
	code, goroutines := sloHTTPGet(t, base+"/debug/capture/"+bundle.ID+"/goroutines.txt")
	if code != http.StatusOK || len(goroutines) == 0 {
		t.Fatalf("goroutines.txt: status %d, %d bytes", code, len(goroutines))
	}
	if !strings.Contains(string(goroutines), "goroutine profile") {
		t.Error("goroutines.txt does not look like a goroutine profile")
	}

	code, cpu := sloHTTPGet(t, base+"/debug/capture/"+bundle.ID+"/cpu.pprof")
	if code != http.StatusOK || len(cpu) == 0 {
		t.Fatalf("cpu.pprof: status %d, %d bytes", code, len(cpu))
	}
	zr, err := gzip.NewReader(bytes.NewReader(cpu))
	if err != nil {
		t.Fatalf("cpu.pprof is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip cpu.pprof: %v", err)
	}
	if !bytes.Contains(raw, []byte(prof.KeyClass)) {
		t.Error("cpu.pprof string table has no `class` label key")
	}
	if !bytes.Contains(raw, []byte("e2e_load")) && !bytes.Contains(raw, []byte("ibp_client")) {
		t.Error("cpu.pprof carries neither the e2e_load nor the ibp_client class value")
	}

	code, tsdbJSON := sloHTTPGet(t, base+"/debug/capture/"+bundle.ID+"/tsdb.json")
	if code != http.StatusOK {
		t.Fatalf("tsdb.json: status %d", code)
	}
	var window map[string][]obs.Point
	if err := json.Unmarshal(tsdbJSON, &window); err != nil {
		t.Fatalf("tsdb.json unparseable: %v", err)
	}
	if len(window) == 0 {
		t.Error("tsdb.json window is empty")
	}
	// The window must include the runtime families the harvester feeds on
	// every sampling tick.
	if len(window[obs.MRuntimeGoroutines]) == 0 {
		t.Errorf("tsdb.json lacks %s; %d series retained", obs.MRuntimeGoroutines, len(window))
	}

	// Stage 5: the capture accounting on /metrics matches what happened.
	_, metricsBody := sloHTTPGet(t, base+"/metrics")
	var snap map[string]any
	if err := json.Unmarshal(metricsBody, &snap); err != nil {
		t.Fatalf("/metrics unparseable: %v", err)
	}
	if v, _ := snap[obs.Label(obs.MCaptureBundles, "trigger", "alert")].(float64); v != 1 {
		t.Errorf("capture.bundles{trigger=alert} = %v, want 1", v)
	}
}
