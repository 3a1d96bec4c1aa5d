package experiments

import (
	"context"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/netsim"
	"lonviz/internal/session"
)

// fastConfig shrinks everything for unit-test speed: short sessions, mild
// shaping, a small lattice and small views.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.StepDeg = 30 // 6x12 lattice
	cfg.L = 3        // 2x4 = 8 view sets
	cfg.Accesses = 12
	cfg.ThinkTime = 5 * time.Millisecond
	cfg.WAN = netsim.LinkProfile{Name: "wan", Latency: 15 * time.Millisecond, Bandwidth: 4 << 20, Shared: true}
	cfg.LAN = netsim.LinkProfile{Name: "lan", Latency: 200 * time.Microsecond, Bandwidth: 60 << 20, Shared: true}
	return cfg
}

func TestRunCase1AllLocalish(t *testing.T) {
	recs, err := RunCase(context.Background(), fastConfig(), 16, Case1LAN)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("records = %d", len(recs))
	}
	// Case 1 never uses a LAN staging depot; accesses are WAN-class
	// transfers over LAN-shaped links or cache hits.
	for i, r := range recs {
		if r.Class == agent.AccessLANDepot {
			t.Errorf("access %d used a staging depot in case 1", i)
		}
		if r.Total <= 0 && r.Class != agent.AccessHit {
			t.Errorf("access %d has non-positive latency", i)
		}
	}
}

func TestRunCase2SlowerThanCase1(t *testing.T) {
	cfg := fastConfig()
	recs1, err := RunCase(context.Background(), cfg, 16, Case1LAN)
	if err != nil {
		t.Fatal(err)
	}
	recs2, err := RunCase(context.Background(), cfg, 16, Case2WAN)
	if err != nil {
		t.Fatal(err)
	}
	m1 := mean(session.TotalSeconds(recs1))
	m2 := mean(session.TotalSeconds(recs2))
	if m2 <= m1 {
		t.Errorf("case 2 mean latency %.4fs not slower than case 1 %.4fs", m2, m1)
	}
}

func TestRunCase3StagingImproves(t *testing.T) {
	// Prefetch off isolates the LAN depot's contribution: without it, the
	// two cases differ only in where misses are served from.
	cfg := fastConfig()
	cfg.NoPrefetch = true
	cfg.Accesses = 20
	// Frames this size over a far link this slow make a miss cost the
	// link's bandwidth. Connection setup, which every persistent client
	// pays once a session in either case, would otherwise be all there is
	// to compare.
	cfg.WAN.Bandwidth = 256 << 10
	const res = 64
	recs2, err := RunCase(context.Background(), cfg, res, Case2WAN)
	if err != nil {
		t.Fatal(err)
	}
	recs3, err := RunCase(context.Background(), cfg, res, Case3Staged)
	if err != nil {
		t.Fatal(err)
	}
	// Case 3 must serve from the LAN depot, and (the paper's core claim)
	// must reach the WAN on fewer accesses than case 2, because staging
	// localizes the database.
	counts3 := session.ClassCounts(recs3)
	counts2 := session.ClassCounts(recs2)
	t.Logf("case2 classes: %v; case3 classes: %v", counts2, counts3)
	if counts3[agent.AccessLANDepot] == 0 {
		t.Error("case 3 never used the LAN depot")
	}
	if counts3[agent.AccessWAN] >= counts2[agent.AccessWAN] {
		t.Errorf("case 3 WAN accesses (%d) not below case 2 (%d)",
			counts3[agent.AccessWAN], counts2[agent.AccessWAN])
	}
	// Mean latency must not regress materially.
	m3 := mean(session.TotalSeconds(recs3))
	m2 := mean(session.TotalSeconds(recs2))
	t.Logf("mean latency: case 2 %.4fs, case 3 %.4fs", m2, m3)
	if m3 > m2*1.2 {
		t.Errorf("case 3 mean %.4fs much worse than case 2 %.4fs", m3, m2)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}

func TestFig7Shape(t *testing.T) {
	cfg := fastConfig()
	rows, err := Fig7(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperResolutions) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Ratio < 3 || r.Ratio > 10 {
			t.Errorf("res %d: ratio %.2f outside the plausible band", r.PaperRes, r.Ratio)
		}
		if i > 0 {
			// Sizes grow with resolution (the quadratic shape of Fig 7).
			if rows[i].PaperScaleUncompressedGB <= rows[i-1].PaperScaleUncompressedGB {
				t.Error("uncompressed size not increasing with resolution")
			}
			if rows[i].MeasuredCompressedMB <= rows[i-1].MeasuredCompressedMB {
				t.Error("compressed size not increasing with resolution")
			}
		}
	}
	// Paper endpoints: ~1.5 GB at 200^2, ~14 GB at 600^2, compressed max
	// around 2 GB.
	if rows[0].PaperScaleUncompressedGB < 1.2 || rows[0].PaperScaleUncompressedGB > 2.0 {
		t.Errorf("200^2 paper-scale size %.2f GB, want ~1.5", rows[0].PaperScaleUncompressedGB)
	}
	last := rows[len(rows)-1]
	if last.PaperScaleUncompressedGB < 12 || last.PaperScaleUncompressedGB > 16 {
		t.Errorf("600^2 paper-scale size %.2f GB, want ~14", last.PaperScaleUncompressedGB)
	}
	if last.PaperScaleCompressedGB > 4 {
		t.Errorf("600^2 compressed %.2f GB, paper reports ~2", last.PaperScaleCompressedGB)
	}
}

func TestClientFPSAbove30(t *testing.T) {
	cfg := fastConfig()
	res, err := ClientFPS(context.Background(), cfg, []int{125})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].FPS < 30 {
		t.Errorf("FPS at 125 display = %.1f, want >= 30 (paper claims >30 at 500)", res[0].FPS)
	}
}

func TestDeployWiring(t *testing.T) {
	cfg := fastConfig()
	d, err := Deploy(context.Background(), cfg, 16, Case3Staged)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.WANDepots) != cfg.NumWANDepots || len(d.LANDepots) != cfg.NumLANDepots {
		t.Errorf("depot pools = %d/%d", len(d.WANDepots), len(d.LANDepots))
	}
	// The client dialer must route server depots over the WAN profile and
	// LAN depots over the LAN profile in case 3.
	for _, addr := range d.WANDepots {
		if d.Dialer.RouteTo(addr).Name != "wan" {
			t.Errorf("server depot %s not routed via WAN", addr)
		}
	}
	for _, addr := range d.LANDepots {
		if d.Dialer.RouteTo(addr).Name != "lan" {
			t.Errorf("LAN depot %s not routed via LAN", addr)
		}
	}
}

func TestScaleRes(t *testing.T) {
	if ScaleRes(200) != 50 || ScaleRes(600) != 150 {
		t.Errorf("ScaleRes = %d, %d", ScaleRes(200), ScaleRes(600))
	}
}

// TestDepotFailureWithReplication injects a server depot crash in the
// middle of a session. With two replicas per stripe, the LoRS failover
// path keeps every access succeeding; the weak "best effort" semantics of
// IBP (paper 2.2) are survivable at the application layer.
func TestDepotFailureWithReplication(t *testing.T) {
	cfg := fastConfig()
	cfg.Replicas = 2
	cfg.NoPrefetch = true // deterministic access pattern
	d, err := Deploy(context.Background(), cfg, 16, Case2WAN)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	v, err := agent.NewViewer(d.Params, d.CA)
	if err != nil {
		t.Fatal(err)
	}
	v.MaxDecoded = 1
	script, err := session.StandardScript(d.Params, 16, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range script.Moves {
		if i == 5 {
			d.WANDepotClosers[0]() // one of three depots dies
		}
		if _, err := v.MoveTo(context.Background(), sp); err != nil {
			t.Fatalf("move %d after depot failure: %v", i, err)
		}
	}
}

// TestDepotFailureWithoutReplication documents the contrast: with a
// single replica, accesses whose stripes lived only on the dead depot
// fail. The session may or may not hit such a stripe, but the system
// must fail with an error rather than wrong data.
func TestDepotFailureWithoutReplication(t *testing.T) {
	cfg := fastConfig()
	cfg.NoPrefetch = true
	d, err := Deploy(context.Background(), cfg, 16, Case2WAN)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Kill all three server depots: every miss must now error.
	for _, closer := range d.WANDepotClosers {
		closer()
	}
	v, err := agent.NewViewer(d.Params, d.CA)
	if err != nil {
		t.Fatal(err)
	}
	script, err := session.StandardScript(d.Params, 4, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	for _, sp := range script.Moves {
		if _, err := v.MoveTo(context.Background(), sp); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Error("no access failed with every depot dead")
	}
}

func TestQGROrdering(t *testing.T) {
	// The paper's observation: case 2's QGR is significantly slower than
	// cases 1 and 3. With a 30ms budget, case 1 passes at the fastest
	// think time while case 2 needs a much longer one.
	cfg := fastConfig()
	cfg.Accesses = 10
	results, err := QGRComparison(context.Background(), cfg, 200, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byCase := map[Case]QGRResult{}
	for _, r := range results {
		byCase[r.Case] = r
		t.Logf("case %d: minThink=%v worst=%v rate=%.1f/s", r.Case, r.MinThink, r.WorstLatency, r.MovesPerSecond)
	}
	if byCase[Case2WAN].MinThink < byCase[Case1LAN].MinThink {
		t.Errorf("case 2 QGR think (%v) faster than case 1 (%v)",
			byCase[Case2WAN].MinThink, byCase[Case1LAN].MinThink)
	}
	if byCase[Case1LAN].MovesPerSecond == 0 {
		t.Error("case 1 never met the budget; budget or shaping miscalibrated")
	}
}
