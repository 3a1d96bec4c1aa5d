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
//	lfbench -fig qgr    in-text 4.2: Quality Guaranteed Rate per case
//	lfbench -fig edge   the edge tier: fleet hit rate, shared vs isolated
//	lfbench -fig all    everything
//
// -csv DIR writes each series as CSV next to the printed tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lonviz/internal/daemon"
	"lonviz/internal/experiments"
	"lonviz/internal/obs/slo"
	"lonviz/internal/session"
)

func main() {
	d := daemon.New("lfbench")
	flag.Lookup("metrics-addr").Usage = "serve /metrics and /debug/pprof on this address while the benchmark runs (empty disables)"
	fig := flag.String("fig", "all", "figure to regenerate: 7|8|9|10|11|12|fps|rates|qgr|edge|all")
	full := flag.Bool("full", false, "use the paper-scale lattice (2.5 deg, l=6); much slower")
	seed := flag.Int64("seed", 1, "experiment seed")
	accesses := flag.Int("accesses", session.PaperAccessCount, "session length in view set accesses")
	think := flag.Duration("think", 0, "cursor think time (0 = config default)")
	csvDir := flag.String("csv", "", "directory to write CSV series into")
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

		figs := []struct {
			name, title string
			run         func() error
		}{
			{"7", "Figure 7: light field database sizes", func() error { return fig7(ctx, cfg, *csvDir) }},
			{"8", "Figure 8: view set decompression time per access", func() error { return fig8(ctx, cfg, *csvDir) }},
			{"9", "Figure 9: client latency per access, 200x200", func() error { return figLatency(ctx, cfg, "9", 200, *csvDir) }},
			{"10", "Figure 10: client latency per access, 300x300", func() error { return figLatency(ctx, cfg, "10", 300, *csvDir) }},
			{"11", "Figure 11: client latency per access, 500x500", func() error { return figLatency(ctx, cfg, "11", 500, *csvDir) }},
			{"12", "Figure 12: communication latency per access (log-scale data)", func() error { return fig12(ctx, cfg, *csvDir) }},
			{"fps", "In-text: client rendering frame rate", func() error { return figFPS(ctx, cfg) }},
			{"rates", "In-text 4.3: initial-phase WAN access and hit rates", func() error { return figRates(ctx, cfg) }},
			{"qgr", "In-text 4.2: Quality Guaranteed Rate per case", func() error { return figQGR(ctx, cfg) }},
			{"edge", "Edge tier: fleet hit rate, shared edge vs isolated caches", func() error { return figEdge(ctx, cfg) }},
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

func figLatency(ctx context.Context, cfg experiments.Config, figName string, paperRes int, csvDir string) error {
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

// edgeClients is the edge figure's fleet: enough clients that their
// cursor paths overlap, as in TestEdgeFleetEndToEnd.
const edgeClients = 50

func figEdge(ctx context.Context, cfg experiments.Config) error {
	// The comparison is about access classes, not transfer speed: a fatter
	// WAN pipe keeps the fleet from serializing on the shared token bucket
	// without changing what counts as a WAN fetch.
	cfg.WAN.Bandwidth = 32 << 20
	run, err := experiments.EdgeFleetExperiment(ctx, cfg, 200, experiments.EdgeFleetOptions{Clients: edgeClients})
	if err != nil {
		return err
	}
	fmt.Printf("%d clients x %d accesses, both legs on path-first prefetch\n", run.Clients, run.Accesses)
	fmt.Printf("hit rate: shared=%.3f isolated=%.3f (edge filled %d view sets, %d hits)\n",
		run.SharedHitRate(), run.IsolatedHitRate(), run.EdgeStats.FilledSets, run.EdgeStats.Hits)
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
