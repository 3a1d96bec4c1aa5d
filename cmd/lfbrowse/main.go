// Command lfbrowse is the client side of the streaming model: a client
// agent (cache + prefetch + optional LAN-depot prestaging) plus a viewer
// that walks an orchestrated cursor path, requesting view sets and
// rendering novel views. It prints the per-access latency log and can
// save rendered frames as PNGs (the paper's Figure 6 screenshots).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/daemon"
	"lonviz/internal/dvs"
	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
	"lonviz/internal/obs/slo"
	"lonviz/internal/session"
)

// prefetchPolicy resolves -prefetch; on is false for "off". Unset, it is
// path, but quadrant under -serve: the path predictor follows one cursor,
// and a served agent takes every client's moves, interleaved.
func prefetchPolicy(name string, serving bool) (policy agent.PrefetchPolicy, on bool, err error) {
	if name == "" && serving {
		name = "quadrant"
	}
	switch name {
	case "", "path":
		return agent.PrefetchPath, true, nil
	case "quadrant":
		return agent.PrefetchQuadrant, true, nil
	case "off":
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("-prefetch %q: want path, quadrant or off", name)
}

func main() {
	d := daemon.New("lfbrowse")
	dvsAddr := flag.String("dvs", "", "DVS address (required)")
	dataset := flag.String("dataset", "neghip", "dataset name")
	res := flag.Int("res", 64, "sample view resolution (must match the published database)")
	step := flag.Float64("step", 10, "lattice step in degrees (must match)")
	l := flag.Int("l", 3, "view set side length (must match)")
	lanDepots := flag.String("lan-depots", "", "comma-separated LAN depot addresses for prestaging")
	edgeAddr := flag.String("edge-addr", "", "shared edge cache (lfedged) address; misses route through it instead of the WAN depots")
	pipelineWindow := d.PipelineWindow("in-flight window per pipelined depot connection (0 or negative forces serial one-connection-per-operation transfers)")
	accesses := flag.Int("accesses", session.PaperAccessCount, "orchestrated accesses")
	think := flag.Duration("think", 100*time.Millisecond, "cursor think time")
	seed := flag.Int64("seed", 1, "cursor script seed")
	prefetch := flag.String("prefetch", "", "prefetch policy: path (the view set the cursor's motion enters next, else the quadrant's first; the default), quadrant (the paper's three; the default with -serve), or off")
	frames := flag.String("frames", "", "directory to write rendered PNG frames into")
	display := flag.Int("display", 200, "display resolution for rendered frames")
	serve := flag.String("serve", "", "also expose the client agent to remote clients on this address")
	tracePeers := flag.String("trace-peers", "", "comma-separated peer observability endpoints (host:port) to pull depot-side trace halves from; prints merged end-to-end trees for the slowest accesses (requires -metrics-addr)")
	flag.Parse()

	if *dvsAddr == "" {
		flag.Usage()
		os.Exit(2)
	}
	p := lightfield.ScaledParams(*step, *l, *res)
	if err := p.Validate(); err != nil {
		log.Fatalf("lfbrowse: %v", err)
	}
	policy, ok, err := prefetchPolicy(*prefetch, *serve != "")
	if err != nil {
		log.Fatalf("lfbrowse: %v", err)
	}

	d.Run(func(ctx context.Context, stack *slo.Stack) error {
		var lan []string
		if *lanDepots != "" {
			lan = strings.Split(*lanDepots, ",")
		}
		stack.SetStatus("starting client agent")
		ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
			Dataset:        *dataset,
			Params:         p,
			DVS:            &dvs.Client{Addr: *dvsAddr},
			LANDepots:      lan,
			Prefetch:       ok,
			PrefetchPolicy: policy,
			EdgeAddr:       *edgeAddr,
			PipelineWindow: pipelineWindow(),
			// Bias replica selection toward depots with good recent
			// latency history; nil (metrics off) keeps the pure shuffled
			// order.
			ReplicaBias: stack.ReplicaBias(5 * time.Minute),
		})
		if err != nil {
			return err
		}
		defer ca.Close()
		if stack.Enabled() {
			ca.RegisterMetrics(nil)
		}

		if *serve != "" {
			srv, err := agent.NewClientAgentServer(ca, *dataset)
			if err != nil {
				return err
			}
			bound, err := srv.ListenAndServe(*serve)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Printf("lfbrowse: client agent also serving remote clients on %s\n", bound)
		}

		if len(lan) > 0 {
			if _, err := ca.StartPrestaging(ctx); err != nil {
				return err
			}
			fmt.Printf("lfbrowse: aggressive prestaging to %d LAN depots started\n", len(lan))
		}
		stack.MarkReady()

		viewer, err := agent.NewViewer(p, ca)
		if err != nil {
			return err
		}
		script, err := session.StandardScript(p, *accesses, *seed)
		if err != nil {
			return err
		}
		if *frames != "" {
			if err := os.MkdirAll(*frames, 0o755); err != nil {
				return err
			}
		}

		fmt.Printf("%-7s %-8s %-12s %-10s %-10s %-10s %-9s\n",
			"access", "viewset", "class", "comm(s)", "unzip(s)", "total(s)", "bytes")
		records, err := session.Run(ctx, viewer, script, session.RunOptions{
			ThinkTime: *think,
			OnAccess: func(i int, rec agent.AccessRecord) {
				fmt.Printf("%-7d %-8s %-12s %-10.4f %-10.4f %-10.4f %-9d\n",
					i+1, rec.ID, rec.Class, rec.Comm.Seconds(), rec.Decompress.Seconds(),
					rec.Total.Seconds(), rec.Bytes)
				if *frames != "" {
					writeFrame(viewer, script.Moves[i], p, *display, filepath.Join(*frames, fmt.Sprintf("frame%03d.png", i)))
				}
			},
		})
		if err != nil {
			return fmt.Errorf("session: %w", err)
		}
		counts := session.ClassCounts(records)
		fmt.Printf("\nlfbrowse: %d accesses, classes %v, initial phase %d, agent stats %+v\n",
			len(records), counts, session.InitialPhaseLength(records), ca.Stats())

		if *tracePeers != "" {
			printMergedTraces(ctx, *tracePeers)
		}
		return nil
	})
}

// printMergedTraces pulls the remote halves of this session's traces from
// the named peer observability endpoints, merges them with the local span
// ring, and renders the slowest end-to-end trees — the cross-host view
// that per-process /debug/traces cannot give.
func printMergedTraces(ctx context.Context, peers string) {
	col := &obs.Collector{Local: obs.DefaultTracer(), Peers: strings.Split(peers, ",")}
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	spans, errs := col.Collect(cctx, 0)
	for _, err := range errs {
		log.Printf("lfbrowse: trace collection: %v", err)
	}
	trees := obs.BuildTrees(spans)
	// Slowest first; cap the dump so a long session stays readable.
	sort.Slice(trees, func(i, j int) bool { return trees[i].Duration() > trees[j].Duration() })
	const maxTrees = 3
	fmt.Printf("\nlfbrowse: %d merged traces from %d spans; slowest %d:\n",
		len(trees), len(spans), min(maxTrees, len(trees)))
	for i, tt := range trees {
		if i >= maxTrees {
			break
		}
		tt.Render(os.Stdout)
	}
}

// writeFrame renders the view at sp and saves it as a PNG at path; a
// failure is logged, not fatal, so one bad frame does not end a session.
func writeFrame(viewer *agent.Viewer, sp geom.Spherical, p lightfield.Params, display int, path string) {
	im, _, err := viewer.Render(sp, p.OuterRadius*1.6, display)
	if err != nil {
		log.Printf("lfbrowse: render %s: %v", path, err)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("lfbrowse: %v", err)
		return
	}
	if err := im.WritePNG(f); err != nil {
		log.Printf("lfbrowse: encode %s: %v", path, err)
	}
	f.Close()
}
