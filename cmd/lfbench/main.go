// Command lfbench regenerates the paper's evaluation: every figure of
// "Remote Visualization by Browsing Image Based Databases with Logistical
// Networking" (SC'03), at laptop scale by default.
//
//	lfbench -fig 7      Figure 7: database sizes, compressed/uncompressed
//	lfbench -fig 8      Figure 8: per-access decompression time
//	lfbench -fig 9      Figure 9: client latency per access, 200x200
//	lfbench -fig 10     Figure 10: same at 300x300
//	lfbench -fig 11     Figure 11: same at 500x500
//	lfbench -fig 12     Figure 12: communication latency (log-scale data)
//	lfbench -fig fps    in-text: client rendering frame rate
//	lfbench -fig rates  in-text 4.3: WAN access & hit rates, cases 2 vs 3
//	lfbench -fig all    everything
//	lfbench -quick      small smoke run; writes BENCH_quick.json and exits
//	lfbench -clients N  multi-client fleet benchmark (implies -quick): adds a
//	                    "fleet" section — aggregate fps, per-client p99,
//	                    fairness spread, shed counts — to the report
//
// -csv DIR writes each series as CSV next to the printed tables. -json DIR
// writes a machine-readable BENCH_<name>.json (frames/sec, fetch-latency
// percentiles, cache hit rate) for the latency figures and -quick.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/daemon"
	"lonviz/internal/experiments"
	"lonviz/internal/obs/prof"
	"lonviz/internal/obs/slo"
	"lonviz/internal/session"
)

func main() {
	d := daemon.New("lfbench")
	flag.Lookup("metrics-addr").Usage = "serve /metrics and /debug/pprof on this address while the benchmark runs (empty disables)"
	fig := flag.String("fig", "all", "figure to regenerate: 7|8|9|10|11|12|fps|rates|qgr|all")
	full := flag.Bool("full", false, "use the paper-scale lattice (2.5 deg, l=6); much slower")
	seed := flag.Int64("seed", 1, "experiment seed")
	accesses := flag.Int("accesses", session.PaperAccessCount, "session length in view set accesses")
	think := flag.Duration("think", 0, "cursor think time (0 = config default)")
	csvDir := flag.String("csv", "", "directory to write CSV series into")
	jsonDir := flag.String("json", ".", "directory to write BENCH_*.json reports into")
	quick := flag.Bool("quick", false, "run a short smoke benchmark, write BENCH_quick.json, verify it parses, and exit")
	clients := flag.Int("clients", 0, "also run a multi-client fleet benchmark with this many concurrent viewers (implies -quick)")
	edgeOn := flag.Bool("edge", false, "also run the edge-fleet benchmark: shared edge cache vs isolated per-client caches, side by side (implies -quick)")
	edgeAddr := flag.String("edge-addr", "", "address of an external lfedged for the -edge shared leg (empty starts an in-process edge)")
	benchName := flag.String("bench-name", "quick", "name for the emitted BENCH_<name>.json in quick/fleet mode")
	compare := flag.String("compare", "", "baseline BENCH_*.json to diff the -quick run against; warns on >20% regressions")
	fleetDebug := flag.String("fleet-debug", "", "metrics address of a scraping steward (-fleet-scrape); its /debug/fleet view is snapshotted into the report's fleet_obs section")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *full {
		cfg = experiments.PaperConfig()
	}
	cfg.Seed = *seed
	cfg.Accesses = *accesses
	if *think > 0 {
		cfg.ThinkTime = *think
	}

	d.Run(func(ctx context.Context, stack *slo.Stack) error {
		stack.MarkReady()
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
		}
		if *quick || *clients > 1 || *edgeOn {
			return runQuick(ctx, cfg, *jsonDir, *compare, *benchName, *clients, *edgeOn, *edgeAddr, *fleetDebug)
		}

		figs := []struct {
			name, title string
			run         func() error
		}{
			{"7", "Figure 7: light field database sizes", func() error { return fig7(ctx, cfg, *csvDir) }},
			{"8", "Figure 8: view set decompression time per access", func() error { return fig8(ctx, cfg, *csvDir) }},
			{"9", "Figure 9: client latency per access, 200x200", func() error { return figLatency(ctx, cfg, "9", 200, *csvDir, *jsonDir) }},
			{"10", "Figure 10: client latency per access, 300x300", func() error { return figLatency(ctx, cfg, "10", 300, *csvDir, *jsonDir) }},
			{"11", "Figure 11: client latency per access, 500x500", func() error { return figLatency(ctx, cfg, "11", 500, *csvDir, *jsonDir) }},
			{"12", "Figure 12: communication latency per access (log-scale data)", func() error { return fig12(ctx, cfg, *csvDir) }},
			{"fps", "In-text: client rendering frame rate", func() error { return figFPS(ctx, cfg) }},
			{"rates", "In-text 4.3: initial-phase WAN access and hit rates", func() error { return figRates(ctx, cfg) }},
			{"qgr", "In-text 4.2: Quality Guaranteed Rate per case", func() error { return figQGR(ctx, cfg) }},
		}
		for _, f := range figs {
			if *fig != "all" && *fig != f.name {
				continue
			}
			start := time.Now()
			fmt.Printf("==== %s ====\n", f.title)
			if err := f.run(); err != nil {
				return fmt.Errorf("%s: %w", f.title, err)
			}
			fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
		}
		return nil
	})
}

func figQGR(ctx context.Context, cfg experiments.Config) error {
	const budget = 50 * time.Millisecond
	results, err := experiments.QGRComparison(ctx, cfg, 300, budget)
	if err != nil {
		return err
	}
	names := map[experiments.Case]string{
		experiments.Case1LAN:    "case 1 (LAN)",
		experiments.Case2WAN:    "case 2 (WAN)",
		experiments.Case3Staged: "case 3 (LAN depot)",
	}
	fmt.Printf("latency budget %v per view set transition:\n", budget)
	fmt.Printf("%-20s %-14s %-14s %-12s\n", "case", "min think", "worst access", "moves/sec")
	for _, r := range results {
		rate := "unattainable"
		if r.MovesPerSecond > 0 {
			rate = fmt.Sprintf("%.1f", r.MovesPerSecond)
		}
		fmt.Printf("%-20s %-14v %-14v %-12s\n", names[r.Case], r.MinThink, r.WorstLatency, rate)
	}
	fmt.Println("paper: case 2's QGR is significantly slower than cases 1 and 3 (section 4.2)")
	return nil
}

// benchPercentiles are exact order statistics over one latency series.
type benchPercentiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// benchCase is one deployment case's results inside a bench report.
type benchCase struct {
	Case            string           `json:"case"`
	Accesses        int              `json:"accesses"`
	FramesPerSecond float64          `json:"frames_per_second"`
	FetchLatencyMs  benchPercentiles `json:"fetch_latency_ms"`
	CommLatencyMs   benchPercentiles `json:"comm_latency_ms"`
	CacheHitRate    float64          `json:"cache_hit_rate"`
	Classes         map[string]int   `json:"classes"`
}

// benchFleet is the multi-client section of a bench report: the same
// deployment under N concurrent viewers sharing one client agent.
type benchFleet struct {
	Clients           int       `json:"clients"`
	AccessesPerClient int       `json:"accesses_per_client"`
	Successes         int       `json:"successes"`
	AggregateFPS      float64   `json:"aggregate_fps"`
	PerClientP99Ms    []float64 `json:"per_client_p99_ms"`
	WorstP99Ms        float64   `json:"worst_p99_ms"`
	// FairnessSpread is fastest-client fps over slowest-client fps
	// (1.0 = perfectly fair); -1 records that some client starved
	// completely (the true spread is infinite, which JSON cannot carry).
	FairnessSpread  float64 `json:"fairness_spread"`
	Busy            int     `json:"busy"`
	Expired         int     `json:"expired"`
	Errors          int     `json:"errors"`
	Coalesced       int64   `json:"coalesced"`
	BusyRejections  int64   `json:"busy_rejections"`
	BudgetExhausted int64   `json:"budget_exhausted"`
}

// benchEdge is the edge-fleet section of a bench report: the same fleet
// of clients run twice over identical cursor scripts, once with isolated
// per-client caches and once sharing an edge cache tier.
type benchEdge struct {
	Clients           int `json:"clients"`
	AccessesPerClient int `json:"accesses_per_client"`
	// SharedHitRate counts local hits plus edge hits over all shared-leg
	// accesses (the fleet-aggregate LAN-or-better rate); IsolatedHitRate
	// is the baseline leg's local-cache hit rate.
	SharedHitRate      float64 `json:"shared_hit_rate"`
	IsolatedHitRate    float64 `json:"isolated_hit_rate"`
	SharedWorstP99Ms   float64 `json:"shared_worst_p99_ms"`
	IsolatedWorstP99Ms float64 `json:"isolated_worst_p99_ms"`
	EdgeHits           int64   `json:"edge_hits"`
	EdgeFills          int64   `json:"edge_fills"`
	// WANFetches counts shared-leg accesses the agents still had to serve
	// from the WAN depots directly (edge down or failed over).
	WANFetches int64 `json:"wan_fetches"`
	// Classes is the shared leg's access-class breakdown.
	Classes map[string]int `json:"classes"`
	// External records a run against an external lfedged (edge hit/fill
	// counters are not visible in-process then and read 0 here).
	External bool `json:"external,omitempty"`
}

// benchReport is the machine-readable BENCH_<name>.json document. The
// runtime section is the process's own fingerprint over the run
// (allocator throughput, GC pauses, goroutine peak), so a latency
// regression in a later diff carries its likely runtime cause along.
type benchReport struct {
	Name        string         `json:"name"`
	GeneratedAt string         `json:"generated_at"`
	Cases       []benchCase    `json:"cases"`
	Fleet       *benchFleet    `json:"fleet,omitempty"`
	Edge        *benchEdge     `json:"edge,omitempty"`
	Runtime     *prof.Summary  `json:"runtime,omitempty"`
	FleetObs    *benchFleetObs `json:"fleet_obs,omitempty"`
}

// benchFleetObs is the cluster-observability context of a run: a
// scraping steward's /debug/fleet view snapshotted as the benchmark
// finishes, so a perf diff carries the fleet health it ran against (a
// degraded depot or a firing coverage alert explains a latency shift
// better than the numbers alone).
type benchFleetObs struct {
	Source          string             `json:"source"`
	MembersUp       int                `json:"members_up"`
	MembersDegraded int                `json:"members_degraded"`
	MembersDown     int                `json:"members_down"`
	Firing          int                `json:"firing"`
	Aggregates      map[string]float64 `json:"aggregates,omitempty"`
}

// fetchFleetObs pulls and condenses one /debug/fleet document; a nil
// return (unreachable steward, bad payload) just omits the section.
func fetchFleetObs(addr string) *benchFleetObs {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(strings.TrimSuffix(base, "/") + "/debug/fleet")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var doc struct {
		Members []struct {
			State string `json:"state"`
		} `json:"members"`
		Aggregates map[string]float64 `json:"aggregates"`
		Firing     int                `json:"firing"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&doc); err != nil {
		return nil
	}
	out := &benchFleetObs{Source: addr, Firing: doc.Firing}
	for _, m := range doc.Members {
		switch m.State {
		case "up":
			out.MembersUp++
		case "degraded":
			out.MembersDegraded++
		default:
			out.MembersDown++
		}
	}
	// Keep only the cluster-level aggregates; the per-node mirrors are
	// matrix detail a report diff does not want.
	for k, v := range doc.Aggregates {
		if strings.Contains(k, "{") {
			continue
		}
		if out.Aggregates == nil {
			out.Aggregates = make(map[string]float64)
		}
		out.Aggregates[k] = v
	}
	return out
}

func summarizeEdge(er *experiments.EdgeFleetRun) *benchEdge {
	classes := make(map[string]int)
	for class, n := range er.Shared.ClassCounts() {
		classes[class.String()] = n
	}
	return &benchEdge{
		Clients:            er.Clients,
		AccessesPerClient:  er.Accesses,
		SharedHitRate:      er.SharedHitRate(),
		IsolatedHitRate:    er.IsolatedHitRate(),
		SharedWorstP99Ms:   er.Shared.WorstP99Ms(),
		IsolatedWorstP99Ms: er.Isolated.WorstP99Ms(),
		EdgeHits:           er.EdgeStats.Hits,
		EdgeFills:          er.EdgeStats.Fills,
		WANFetches:         er.SharedAgents.WANFetches,
		Classes:            classes,
		External:           er.External,
	}
}

func summarizeFleet(fr *experiments.FleetRun) *benchFleet {
	out := &benchFleet{
		Clients:           fr.Clients,
		AccessesPerClient: fr.Accesses,
		Successes:         fr.Result.Accesses(),
		AggregateFPS:      fr.Result.AggregateFPS(),
		WorstP99Ms:        fr.Result.WorstP99Ms(),
		FairnessSpread:    fr.Result.FairnessSpread(),
		Coalesced:         fr.Agent.Coalesced,
		BusyRejections:    fr.Agent.BusyRejections,
		BudgetExhausted:   fr.Agent.BudgetExhausted,
	}
	if math.IsInf(out.FairnessSpread, 1) {
		out.FairnessSpread = -1
	}
	for _, r := range fr.Result.Runs {
		out.PerClientP99Ms = append(out.PerClientP99Ms, r.P99Ms())
		out.Busy += r.Busy
		out.Expired += r.Expired
		out.Errors += r.Errors
	}
	return out
}

var caseNames = map[experiments.Case]string{
	experiments.Case1LAN:    "case1_lan",
	experiments.Case2WAN:    "case2_wan",
	experiments.Case3Staged: "case3_landepot",
}

// exactPercentile returns the q-quantile (0..1) by nearest-rank over a
// sorted copy of xs.
func exactPercentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func percentilesMs(seconds []float64) benchPercentiles {
	sorted := append([]float64(nil), seconds...)
	sort.Float64s(sorted)
	return benchPercentiles{
		P50: exactPercentile(sorted, 0.50) * 1e3,
		P95: exactPercentile(sorted, 0.95) * 1e3,
		P99: exactPercentile(sorted, 0.99) * 1e3,
	}
}

func summarizeCase(r experiments.CaseRun) benchCase {
	total := session.TotalSeconds(r.Records)
	sum := 0.0
	for _, s := range total {
		sum += s
	}
	fps := 0.0
	if sum > 0 {
		fps = float64(len(r.Records)) / sum
	}
	counts := session.ClassCounts(r.Records)
	classes := make(map[string]int, len(counts))
	for class, n := range counts {
		classes[class.String()] = n
	}
	hitRate := 0.0
	if len(r.Records) > 0 {
		hitRate = float64(counts[agent.AccessHit]) / float64(len(r.Records))
	}
	return benchCase{
		Case:            caseNames[r.Case],
		Accesses:        len(r.Records),
		FramesPerSecond: fps,
		FetchLatencyMs:  percentilesMs(total),
		CommLatencyMs:   percentilesMs(session.CommSeconds(r.Records)),
		CacheHitRate:    hitRate,
		Classes:         classes,
	}
}

// writeBenchJSON renders runs into BENCH_<name>.json under dir and returns
// the file path. fleet and edge are optional.
func writeBenchJSON(dir, name string, runs []experiments.CaseRun, fleet *benchFleet, edge *benchEdge, rt *prof.Summary, fleetObs *benchFleetObs) (string, error) {
	report := benchReport{
		Name:        name,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Fleet:       fleet,
		Edge:        edge,
		Runtime:     rt,
		FleetObs:    fleetObs,
	}
	for _, r := range runs {
		report.Cases = append(report.Cases, summarizeCase(r))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	fmt.Printf("lfbench: wrote %s\n", path)
	return path, nil
}

// runQuick is the CI smoke mode: a short three-case run at one resolution,
// reported as BENCH_<name>.json and re-read to prove the file parses. With a
// baseline it also diffs the fresh report against it (warn-only). With
// clients > 1 it additionally runs the multi-client fleet benchmark and
// records the fleet section alongside the standard single-client cases.
func runQuick(ctx context.Context, cfg experiments.Config, jsonDir, baseline, name string, clients int, edgeOn bool, edgeAddr, fleetDebug string) error {
	if jsonDir == "" {
		jsonDir = "."
	}
	if name == "" {
		name = "quick"
	}
	// With a baseline, match its session length and keep the configured
	// cursor pacing so the diff is apples-to-apples (a short, unpaced
	// session has a different cache-hit tail and starves prestaging,
	// which would warn on every run). Without one, keep the smoke run as
	// short as possible.
	if bl, err := readBenchReport(baseline); err == nil && len(bl.Cases) > 0 && bl.Cases[0].Accesses > 0 {
		cfg.Accesses = bl.Cases[0].Accesses
	} else {
		if cfg.Accesses > 24 {
			cfg.Accesses = 24
		}
		cfg.ThinkTime = 0
	}
	start := time.Now()
	// Collect the process's runtime fingerprint across every experiment
	// in the run, so the report's runtime section reflects the same work
	// the case numbers describe.
	collector := prof.StartSummary(0)
	runs, err := experiments.LatencyExperiment(ctx, cfg, 200)
	if err != nil {
		return err
	}
	var fleet *benchFleet
	if clients > 1 {
		fr, err := experiments.FleetExperiment(ctx, cfg, 200, clients)
		if err != nil {
			return err
		}
		fleet = summarizeFleet(fr)
		fmt.Printf("lfbench: fleet %d clients x %d accesses: %.1f aggregate fps, worst p99 %.1f ms, spread %.2f, busy=%d expired=%d errors=%d coalesced=%d\n",
			fleet.Clients, fleet.AccessesPerClient, fleet.AggregateFPS, fleet.WorstP99Ms,
			fleet.FairnessSpread, fleet.Busy, fleet.Expired, fleet.Errors, fleet.Coalesced)
	}
	// The edge comparison also runs when the baseline carries one, so a
	// plain -compare run keeps diffing the edge section it was given.
	var edge *benchEdge
	var baseEdge *benchEdge
	if bl, err := readBenchReport(baseline); err == nil {
		baseEdge = bl.Edge
	}
	if edgeOn || baseEdge != nil {
		edgeClients := clients
		if baseEdge != nil && baseEdge.Clients > 0 {
			edgeClients = baseEdge.Clients
		}
		if edgeClients <= 1 {
			edgeClients = 10
		}
		er, err := experiments.EdgeFleetExperiment(ctx, cfg, 200, experiments.EdgeFleetOptions{
			Clients:    edgeClients,
			EdgeAddr:   edgeAddr,
			Trajectory: true,
		})
		if err != nil {
			return err
		}
		edge = summarizeEdge(er)
		fmt.Printf("lfbench: edge fleet %d clients x %d accesses: hit rate shared=%.2f isolated=%.2f, worst p99 shared=%.1fms isolated=%.1fms, edge hits=%d fills=%d, wan fetches=%d\n",
			edge.Clients, edge.AccessesPerClient, edge.SharedHitRate, edge.IsolatedHitRate,
			edge.SharedWorstP99Ms, edge.IsolatedWorstP99Ms, edge.EdgeHits, edge.EdgeFills, edge.WANFetches)
	}
	rt := collector.Stop()
	fmt.Printf("lfbench: runtime: alloc=%.1fMB/s gc_pause_p99=%.3fms gc_cycles=%d peak_goroutines=%d over %.1fs\n",
		rt.AllocRateMBs, rt.GCPauseP99Ms, rt.GCCycles, rt.PeakGoroutines, rt.DurationSec)
	var fleetObs *benchFleetObs
	if fleetDebug != "" {
		if fleetObs = fetchFleetObs(fleetDebug); fleetObs == nil {
			fmt.Printf("lfbench: fleet obs: no /debug/fleet at %s (section omitted)\n", fleetDebug)
		} else {
			fmt.Printf("lfbench: fleet obs: %d up / %d degraded / %d down, %d alert(s) firing\n",
				fleetObs.MembersUp, fleetObs.MembersDegraded, fleetObs.MembersDown, fleetObs.Firing)
		}
	}
	path, err := writeBenchJSON(jsonDir, name, runs, fleet, edge, &rt, fleetObs)
	if err != nil {
		return err
	}
	// Self-verify: the emitted report must round-trip and carry the keys
	// scripts/check.sh depends on.
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var back benchReport
	if err := json.Unmarshal(data, &back); err != nil {
		return fmt.Errorf("%s does not parse: %w", path, err)
	}
	if len(back.Cases) == 0 {
		return fmt.Errorf("%s has no cases", path)
	}
	for _, c := range back.Cases {
		if c.Accesses == 0 || c.FramesPerSecond <= 0 {
			return fmt.Errorf("%s case %q is empty", path, c.Case)
		}
	}
	if clients > 1 && (back.Fleet == nil || back.Fleet.Successes == 0) {
		return fmt.Errorf("%s fleet section is empty", path)
	}
	if edge != nil && (back.Edge == nil || back.Edge.SharedHitRate <= 0) {
		return fmt.Errorf("%s edge section is empty", path)
	}
	fmt.Printf("lfbench: quick run ok: %d cases, %d accesses each, %.1fs total\n",
		len(back.Cases), back.Cases[0].Accesses, time.Since(start).Seconds())
	if baseline != "" {
		if err := compareReports(baseline, back); err != nil {
			return err
		}
	}
	return nil
}

// readBenchReport loads and parses one BENCH_*.json.
func readBenchReport(path string) (benchReport, error) {
	var r benchReport
	if path == "" {
		return r, fmt.Errorf("compare baseline: no path")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return r, fmt.Errorf("compare baseline: %w", err)
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("compare baseline %s does not parse: %w", path, err)
	}
	return r, nil
}

// compareReports diffs a fresh bench report against a committed baseline.
// Most metrics print WARN lines past a 20% regression and never fail the
// run — micro benchmarks on shared CI machines are too noisy to gate on,
// but a persistent warning in every run is hard to ignore. One exception
// gates hard: the LAN case's frames_per_second runs with no simulated WAN
// in the path, so it is the stable throughput signature of the zero-copy
// data plane, and a >10% drop fails the run (and check.sh with it).
func compareReports(baselinePath string, current benchReport) error {
	base, err := readBenchReport(baselinePath)
	if err != nil {
		return err
	}
	baseCases := make(map[string]benchCase, len(base.Cases))
	for _, c := range base.Cases {
		baseCases[c.Case] = c
	}
	const tolerance = 1.20 // warn past a 20% regression
	regressions := 0
	// warnSlower flags metrics where bigger is worse (latencies).
	warnSlower := func(kase, metric string, baseV, curV float64) {
		if baseV > 0 && curV > baseV*tolerance {
			fmt.Printf("lfbench: WARN %s %s regressed %.1f%%: %.3f -> %.3f\n",
				kase, metric, 100*(curV/baseV-1), baseV, curV)
			regressions++
		}
	}
	// warnFaster flags metrics where smaller is worse (throughput).
	warnFaster := func(kase, metric string, baseV, curV float64) {
		if baseV > 0 && curV < baseV/tolerance {
			fmt.Printf("lfbench: WARN %s %s regressed %.1f%%: %.3f -> %.3f\n",
				kase, metric, 100*(1-curV/baseV), baseV, curV)
			regressions++
		}
	}
	compared := 0
	for _, c := range current.Cases {
		b, ok := baseCases[c.Case]
		if !ok {
			fmt.Printf("lfbench: WARN case %q missing from baseline %s\n", c.Case, baselinePath)
			continue
		}
		compared++
		warnFaster(c.Case, "frames_per_second", b.FramesPerSecond, c.FramesPerSecond)
		warnSlower(c.Case, "fetch_latency_ms.p50", b.FetchLatencyMs.P50, c.FetchLatencyMs.P50)
		warnSlower(c.Case, "fetch_latency_ms.p95", b.FetchLatencyMs.P95, c.FetchLatencyMs.P95)
		warnSlower(c.Case, "fetch_latency_ms.p99", b.FetchLatencyMs.P99, c.FetchLatencyMs.P99)
	}
	if compared == 0 {
		return fmt.Errorf("compare: no cases in common with baseline %s", baselinePath)
	}
	// Hard gate (see the function comment): >10% LAN throughput regression
	// is an error, not a warning.
	const lanGate = 1.10
	if b, ok := baseCases["case1_lan"]; ok && b.FramesPerSecond > 0 {
		for _, c := range current.Cases {
			if c.Case == "case1_lan" && c.FramesPerSecond < b.FramesPerSecond/lanGate {
				return fmt.Errorf("compare: case1_lan frames_per_second regressed %.1f%% (%.2f -> %.2f), past the 10%% hard gate",
					100*(1-c.FramesPerSecond/b.FramesPerSecond), b.FramesPerSecond, c.FramesPerSecond)
			}
		}
	}
	// Fleet sections only diff like-for-like: same client count, both runs
	// actually produced one (a plain -quick run against a fleet baseline
	// just skips this block).
	if base.Fleet != nil && current.Fleet != nil && base.Fleet.Clients == current.Fleet.Clients {
		warnFaster("fleet", "aggregate_fps", base.Fleet.AggregateFPS, current.Fleet.AggregateFPS)
		warnSlower("fleet", "worst_p99_ms", base.Fleet.WorstP99Ms, current.Fleet.WorstP99Ms)
		if base.Fleet.FairnessSpread > 0 && current.Fleet.FairnessSpread > 0 {
			warnSlower("fleet", "fairness_spread", base.Fleet.FairnessSpread, current.Fleet.FairnessSpread)
		}
	}
	// Edge sections likewise diff only like-for-like fleets.
	if base.Edge != nil && current.Edge != nil && base.Edge.Clients == current.Edge.Clients {
		warnFaster("edge", "shared_hit_rate", base.Edge.SharedHitRate, current.Edge.SharedHitRate)
		warnSlower("edge", "shared_worst_p99_ms", base.Edge.SharedWorstP99Ms, current.Edge.SharedWorstP99Ms)
	}
	// Runtime fingerprints diff warn-only: allocator throughput, GC pause
	// tail, and goroutine peak are the usual suspects behind a latency
	// warning above, so surface their drift in the same breath.
	if base.Runtime != nil && current.Runtime != nil {
		warnSlower("runtime", "alloc_rate_mb_s", base.Runtime.AllocRateMBs, current.Runtime.AllocRateMBs)
		warnSlower("runtime", "gc_pause_p99_ms", base.Runtime.GCPauseP99Ms, current.Runtime.GCPauseP99Ms)
		warnSlower("runtime", "peak_goroutines", float64(base.Runtime.PeakGoroutines), float64(current.Runtime.PeakGoroutines))
	}
	if regressions == 0 {
		fmt.Printf("lfbench: compare vs %s ok (%d cases within 20%%)\n", baselinePath, compared)
	} else {
		fmt.Printf("lfbench: compare vs %s: %d regression warning(s)\n", baselinePath, regressions)
	}
	return nil
}

func fig7(ctx context.Context, cfg experiments.Config, csvDir string) error {
	rows, err := experiments.Fig7(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-22s %-22s %-8s %-14s\n",
		"pixel res", "uncompressed (GB)*", "compressed (GB)*", "ratio", "avg set (MB)*")
	for _, r := range rows {
		fmt.Printf("%dx%-6d %-22.2f %-22.2f %-8.2f %-14.2f\n",
			r.PaperRes, r.PaperRes, r.PaperScaleUncompressedGB, r.PaperScaleCompressedGB, r.Ratio, r.AvgViewSetMB)
	}
	fmt.Println("* paper-scale lattice (144x72, 4 B/px accounting); ratios measured on this build's data")
	fmt.Println("paper reports: 1.5-14 GB uncompressed, 5-7x ratios, <= ~2 GB compressed, 1.2-7.8 MB view sets")
	if csvDir != "" {
		f, err := os.Create(filepath.Join(csvDir, "fig7.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "res,uncompressed_gb,compressed_gb,ratio,avg_viewset_mb")
		for _, r := range rows {
			fmt.Fprintf(f, "%d,%.3f,%.3f,%.3f,%.3f\n",
				r.PaperRes, r.PaperScaleUncompressedGB, r.PaperScaleCompressedGB, r.Ratio, r.AvgViewSetMB)
		}
	}
	return nil
}

func fig8(ctx context.Context, cfg experiments.Config, csvDir string) error {
	series, err := experiments.Fig8(ctx, cfg)
	if err != nil {
		return err
	}
	resList := experiments.LatencyResolutions
	fmt.Printf("decompression seconds per access (resolutions %v, scaled /4):\n", resList)
	printAlignedSeries(resList, series)
	fmt.Println("paper reports: sub-second below 400x400, growing with resolution")
	if csvDir != "" {
		return writeResSeriesCSV(filepath.Join(csvDir, "fig8.csv"), resList, series)
	}
	return nil
}

func figLatency(ctx context.Context, cfg experiments.Config, figName string, paperRes int, csvDir, jsonDir string) error {
	runs, err := experiments.LatencyExperiment(ctx, cfg, paperRes)
	if err != nil {
		return err
	}
	var series [][]float64
	headers := []string{"case1_lan", "case2_wan", "case3_landepot"}
	for _, r := range runs {
		series = append(series, session.TotalSeconds(r.Records))
	}
	printCaseSeries(headers, series)
	summarizeCases(headers, runs)
	if jsonDir != "" {
		if _, err := writeBenchJSON(jsonDir, "fig"+figName, runs, nil, nil, nil, nil); err != nil {
			return err
		}
	}
	if csvDir != "" {
		f, err := os.Create(filepath.Join(csvDir, "fig"+figName+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return session.WriteSeriesCSV(f, headers, series...)
	}
	return nil
}

func fig12(ctx context.Context, cfg experiments.Config, csvDir string) error {
	for _, paperRes := range experiments.LatencyResolutions {
		runs, err := experiments.LatencyExperiment(ctx, cfg, paperRes)
		if err != nil {
			return err
		}
		fmt.Printf("-- %dx%d (communication latency seconds) --\n", paperRes, paperRes)
		headers := []string{"case1_lan", "case2_wan", "case3_landepot"}
		var series [][]float64
		for _, r := range runs {
			series = append(series, session.CommSeconds(r.Records))
		}
		printCaseSeries(headers, series)
		if csvDir != "" {
			f, err := os.Create(filepath.Join(csvDir, fmt.Sprintf("fig12_%d.csv", paperRes)))
			if err != nil {
				return err
			}
			if err := session.WriteSeriesCSV(f, headers, series...); err != nil {
				f.Close()
				return err
			}
			f.Close()
		}
	}
	fmt.Println("paper reports orders: hit ~1e-4 s << LAN depot ~1e-2..1e-1 s << WAN ~1 s")
	return nil
}

func figFPS(ctx context.Context, cfg experiments.Config) error {
	results, err := experiments.ClientFPS(ctx, cfg, []int{50, 75, 125, 200, 500})
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-14s %-14s\n", "display res", "lookup fps", "blend fps")
	for _, r := range results {
		fmt.Printf("%-12d %-14.1f %-14.1f\n", r.DisplayRes, r.FPS, r.BlendFPS)
	}
	fmt.Println("paper reports: above 30 fps even at 500x500 (nearest-sample table lookup)")
	return nil
}

func figRates(ctx context.Context, cfg experiments.Config) error {
	r, err := experiments.Rates(ctx, cfg, 500)
	if err != nil {
		return err
	}
	fmt.Printf("initial phase length: case2=%d accesses, case3=%d accesses (paper: case3 ~33 at 500x500)\n",
		r.InitialPhase2, r.InitialPhase3)
	fmt.Printf("first-half WAN access rate: case2=%.0f%%, case3=%.0f%% (paper initial phase: 69%% vs 28%%)\n",
		100*r.WANRate2, 100*r.WANRate3)
	fmt.Printf("session hit rate: case2=%.0f%%, case3=%.0f%% (paper: 28%% vs 33%%)\n",
		100*r.HitRate2, 100*r.HitRate3)
	return nil
}

func printCaseSeries(headers []string, series [][]float64) {
	fmt.Printf("%-7s", "access")
	for _, h := range headers {
		fmt.Printf(" %-15s", h)
	}
	fmt.Println()
	n := len(series[0])
	for i := 0; i < n; i++ {
		fmt.Printf("%-7d", i+1)
		for _, s := range series {
			// Six decimals: Figure 12 is read on a log scale where cache
			// hits live around 1e-5..1e-4 seconds.
			fmt.Printf(" %-15.6f", s[i])
		}
		fmt.Println()
	}
}

func printAlignedSeries(resList []int, series map[int][]float64) {
	fmt.Printf("%-7s", "access")
	for _, r := range resList {
		fmt.Printf(" %-12d", r)
	}
	fmt.Println()
	n := len(series[resList[0]])
	for i := 0; i < n; i++ {
		fmt.Printf("%-7d", i+1)
		for _, r := range resList {
			fmt.Printf(" %-12.4f", series[r][i])
		}
		fmt.Println()
	}
}

func writeResSeriesCSV(path string, resList []int, series map[int][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	headers := make([]string, len(resList))
	ordered := make([][]float64, len(resList))
	for i, r := range resList {
		headers[i] = fmt.Sprintf("res%d", r)
		ordered[i] = series[r]
	}
	return session.WriteSeriesCSV(f, headers, ordered...)
}

func summarizeCases(headers []string, runs []experiments.CaseRun) {
	for i, r := range runs {
		counts := session.ClassCounts(r.Records)
		mean := 0.0
		for _, s := range session.TotalSeconds(r.Records) {
			mean += s
		}
		mean /= float64(len(r.Records))
		fmt.Printf("summary %-15s mean=%.4fs classes=%v initial_phase=%d\n",
			headers[i], mean, counts, session.InitialPhaseLength(r.Records))
	}
}
