// Command lfserve runs the server side of the streaming model: the server
// agent with its generator, uploading view sets to IBP depots and
// registering exNodes with a DVS. With -precompute it publishes the whole
// database up front (the paper's offline path); it always also serves
// on-demand render requests (the paper's run-time path for close-up
// zooms).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/exnode"
	"lonviz/internal/lbone"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/obs"
	"lonviz/internal/obs/slo"
	"lonviz/internal/steward"
	"lonviz/internal/volume"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6900", "server agent listen address")
	depots := flag.String("depots", "", "comma-separated server depot addresses (required)")
	dvsAddr := flag.String("dvs", "", "DVS address (required)")
	dataset := flag.String("dataset", "neghip", "dataset name")
	res := flag.Int("res", 64, "sample view resolution")
	step := flag.Float64("step", 10, "lattice step in degrees")
	l := flag.Int("l", 3, "view set side length")
	volSize := flag.Int("volume", 64, "synthetic volume dimension")
	procedural := flag.Bool("procedural", false, "procedural generator instead of ray casting")
	precompute := flag.Bool("precompute", true, "render and publish the full database at startup")
	storeDir := flag.String("store", "", "serve/cache view sets from this lfgen-compatible directory")
	replicas := flag.Int("replicas", 1, "replicas per stripe across depots")
	maxPending := flag.Int("max-pending", 0, "render scheduler bound: max queued view sets before the oldest is evicted with BUSY (0 = unbounded)")
	seed := flag.Int64("seed", 1, "synthetic data seed")
	runSteward := flag.Bool("steward", false, "run a background steward over the precomputed database (renews leases, repairs replicas)")
	stewardInterval := flag.Duration("steward-interval", time.Minute, "steward scan cycle interval")
	stewardLease := flag.Duration("steward-lease", 30*time.Minute, "lease term for steward renewals and repairs")
	lboneURL := flag.String("lbone", "", "L-Bone base URL for steward repair depot discovery; empty restricts repair to -depots")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (empty disables)")
	sloConfig := flag.String("slo-config", "", "JSON SLO rule file (empty: built-in rules; needs -metrics-addr)")
	profRates := flag.Bool("prof-rates", false, "enable mutex/block profiling rates (contention evidence in capture bundles)")
	tsdbInterval := flag.Duration("tsdb-interval", time.Second, "metrics history sampling interval (/debug/tsdb retention scales with it)")
	logLevel := flag.String("log-level", "info", "event log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "kv", "event log line format: kv|json")
	flag.Parse()

	if *depots == "" || *dvsAddr == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := obs.ConfigureDefaultLogger(*logLevel, *logFormat); err != nil {
		log.Fatalf("lfserve: %v", err)
	}
	depotList := strings.Split(*depots, ",")
	p := lightfield.ScaledParams(*step, *l, *res)
	if err := p.Validate(); err != nil {
		log.Fatalf("lfserve: %v", err)
	}

	var gen lightfield.Generator
	if *procedural {
		g, err := lightfield.NewProceduralGenerator(p, *seed)
		if err != nil {
			log.Fatalf("lfserve: %v", err)
		}
		gen = g
	} else {
		vol, err := volume.NegHip(*volSize)
		if err != nil {
			log.Fatalf("lfserve: %v", err)
		}
		g, err := lightfield.NewRaycastGenerator(p, vol, volume.DefaultNegHipTF())
		if err != nil {
			log.Fatalf("lfserve: %v", err)
		}
		gen = g
	}

	if *storeDir != "" {
		store, err := lightfield.NewDirStore(*storeDir, p)
		if err != nil {
			log.Fatalf("lfserve: %v", err)
		}
		gen = &lightfield.FallbackGenerator{Store: store, Live: gen}
		fmt.Printf("lfserve: serving from store %s with live fallback\n", *storeDir)
	}

	// One persistent DVS client for publishing, registration and the
	// steward; sa.Close drops its idle connections on the way out.
	dvsClient := &dvs.Client{Addr: *dvsAddr}
	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset:    *dataset,
		Gen:        gen,
		Depots:     depotList,
		DVS:        dvsClient,
		Replicas:   *replicas,
		MaxPending: *maxPending,
	})
	if err != nil {
		log.Fatalf("lfserve: %v", err)
	}
	defer sa.Close()
	bound, err := sa.ListenAndServe(*addr)
	if err != nil {
		log.Fatalf("lfserve: %v", err)
	}
	fmt.Printf("lfserve: server agent for %q on %s, %d depots, DVS %s\n",
		*dataset, bound, len(depotList), *dvsAddr)

	if *metricsAddr != "" {
		sa.RegisterMetrics(nil)
	}
	stack, err := slo.Start(slo.Options{
		Addr:           *metricsAddr,
		RulesPath:      *sloConfig,
		SampleInterval: *tsdbInterval,
		ProfRates:      *profRates,
	})
	if err != nil {
		log.Fatalf("lfserve: metrics listen: %v", err)
	}
	if stack.Enabled() {
		fmt.Printf("lfserve: metrics on http://%s/metrics (pprof at /debug/pprof/)\n", stack.Addr())
	}

	// Announce fleet membership: the server agent never serves IBP, so
	// the L-Bone will not hand it out for allocation (kind=agent), but
	// the steward's fleet scraper discovers its metrics address here and
	// folds render/upload health into the cluster view.
	announceStop := make(chan struct{})
	defer close(announceStop)
	if *lboneURL != "" && stack.Enabled() {
		cl := &lbone.Client{BaseURL: *lboneURL}
		record := func() lbone.DepotRecord {
			return lbone.DepotRecord{
				Addr: bound, Kind: lbone.KindAgent, MetricsAddr: stack.Addr(),
			}
		}
		go cl.Heartbeat(record, 10*time.Second, announceStop)
	}

	// Register with the DVS so it can forward misses here.
	stack.SetStatus("registering with DVS")
	if err := dvsClient.RegisterAgent(context.Background(), *dataset, bound); err != nil {
		log.Printf("lfserve: DVS agent registration failed: %v", err)
	}

	var published map[lightfield.ViewSetID][]byte
	if *precompute {
		stack.SetStatus("precomputing database")
		start := time.Now()
		out, err := sa.PrecomputeAll(context.Background())
		if err != nil {
			log.Fatalf("lfserve: precompute: %v", err)
		}
		published = out
		fmt.Printf("lfserve: published %d view sets in %v\n", len(out), time.Since(start).Round(time.Millisecond))
	}

	// With -steward, adopt everything just published and keep it healthy in
	// the background: lease renewal, replica repair, republication.
	var stw *steward.Steward
	if *runSteward {
		if len(published) == 0 {
			log.Fatalf("lfserve: -steward requires -precompute (nothing to adopt)")
		}
		cfg := steward.Config{
			ReplicationTarget: *replicas,
			LeaseTerm:         *stewardLease,
			ScanInterval:      *stewardInterval,
			Health:            lors.NewHealthTracker(lors.HealthConfig{}),
			Publish: func(ctx context.Context, name string, ex *exnode.ExNode) error {
				xml, err := ex.Marshal()
				if err != nil {
					return err
				}
				return dvsClient.Replace(ctx, dvs.Key{Dataset: *dataset, ViewSet: name}, xml)
			},
			OnEvent: func(ev steward.Event) {
				if ev.Type != steward.EventRenew {
					log.Printf("lfserve: steward: %s", ev)
				}
			},
		}
		if *lboneURL != "" {
			cfg.Locate = steward.LBoneLocator(&lbone.Client{BaseURL: *lboneURL}, 0, 0)
		} else {
			// No directory: repair within the configured depot pool.
			cfg.Locate = func(_ context.Context, n int, _ int64, exclude map[string]bool) ([]string, error) {
				var out []string
				for _, d := range depotList {
					if !exclude[d] {
						out = append(out, d)
					}
				}
				if n > 0 && len(out) > n {
					out = out[:n]
				}
				return out, nil
			}
		}
		stw = steward.New(cfg)
		if *metricsAddr != "" {
			stw.RegisterMetrics(nil)
		}
		for id, xml := range published {
			ex, err := exnode.Unmarshal(xml)
			if err != nil {
				log.Fatalf("lfserve: steward adopt %s: %v", id, err)
			}
			if err := stw.Adopt(id.String(), ex); err != nil {
				log.Fatalf("lfserve: steward adopt %s: %v", id, err)
			}
		}
		// Close the loop: a firing depot alert triggers a targeted audit of
		// that depot's replicas ahead of the periodic cycle.
		stack.Subscribe(steward.AlertTrigger(stw))
		stewCtx, stewCancel := context.WithCancel(context.Background())
		defer stewCancel()
		go func() {
			if err := stw.Run(stewCtx); err != nil && stewCtx.Err() == nil {
				log.Printf("lfserve: steward stopped: %v", err)
			}
		}()
		fmt.Printf("lfserve: steward managing %d view sets (interval %v, target replication %d)\n",
			len(published), *stewardInterval, *replicas)
	}
	stack.MarkReady()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	closeCtx, closeCancel := context.WithTimeout(context.Background(), 3*time.Second)
	_ = stack.Close(closeCtx)
	closeCancel()
	st := sa.Stats()
	fmt.Printf("lfserve: shutting down; rendered %d, uploaded %d (%d bytes), %d DVS updates\n",
		st.Rendered, st.Uploaded, st.BytesSent, st.DVSUpdates)
	if stw != nil {
		ss := stw.Stats()
		fmt.Printf("lfserve: steward: %d cycles, %d renewals, %d/%d repairs, %d pruned, %d republished\n",
			ss.Cycles, ss.LeasesRenewed, ss.RepairsSucceeded, ss.RepairsAttempted, ss.ReplicasPruned, ss.Republishes)
	}
}
