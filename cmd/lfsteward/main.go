// Command lfsteward runs the maintenance daemon for a published
// light-field database. It resolves every view set's exNode from the DVS,
// adopts them, and then keeps the database healthy: probing replica
// allocations, renewing leases before they expire, repairing
// under-replicated extents onto fresh depots from the L-Bone, pruning
// dead replicas, and republishing repaired exNodes through the DVS so
// browsing clients pick up the new layout.
//
// Without a steward, an IBP-hosted database silently decays as leases run
// out and depots fail; with one, the paper's "publish once, browse from
// the network" model keeps working indefinitely.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/daemon"
	"lonviz/internal/dvs"
	"lonviz/internal/edge"
	"lonviz/internal/exnode"
	"lonviz/internal/lbone"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/obs/fleet"
	"lonviz/internal/obs/slo"
	"lonviz/internal/steward"
)

func main() {
	d := daemon.New("lfsteward")
	dvsAddr := flag.String("dvs", "", "DVS address (required)")
	dataset := flag.String("dataset", "neghip", "dataset name")
	res := flag.Int("res", 64, "sample view resolution (must match the published database)")
	step := flag.Float64("step", 10, "lattice step in degrees (must match the published database)")
	l := flag.Int("l", 3, "view set side length (must match the published database)")
	lboneURL := flag.String("lbone", "", "L-Bone base URL for repair depot discovery (e.g. http://host:port); empty disables repair")
	x := flag.Float64("x", 0, "network coordinate for depot selection")
	y := flag.Float64("y", 0, "network coordinate for depot selection")
	replicas := flag.Int("replicas", 2, "target replicas per extent")
	interval := flag.Duration("interval", time.Minute, "scan cycle interval")
	renewWindow := flag.Duration("renew-window", 5*time.Minute, "renew leases expiring within this window")
	lease := flag.Duration("lease", 30*time.Minute, "lease term for renewals and repairs")
	budget := flag.Int("repair-budget", 16, "max repair copies per cycle")
	verbose := flag.Bool("v", false, "log every steward event")
	once := flag.Bool("once", false, "run a single scan cycle and exit")
	fleetScrape := flag.Bool("fleet-scrape", false, "scrape the whole fleet's observability endpoints into a cluster TSDB served at /debug/fleet (needs -metrics-addr; discovers members via -lbone plus -fleet-peers)")
	fleetPeers := flag.String("fleet-peers", "", "comma-separated static metrics addresses to scrape in addition to L-Bone discovery")
	fleetInterval := flag.Duration("fleet-interval", 5*time.Second, "fleet scrape poll interval")
	edgeAddr := flag.String("edge", "", "edge depot address for demand-driven hot-set warming (needs -fleet-scrape; empty disables)")
	flag.Parse()

	if *dvsAddr == "" {
		flag.Usage()
		os.Exit(2)
	}
	p := lightfield.ScaledParams(*step, *l, *res)
	if err := p.Validate(); err != nil {
		log.Fatalf("lfsteward: %v", err)
	}

	dvsClient := &dvs.Client{Addr: *dvsAddr}
	cfg := steward.Config{
		ReplicationTarget: *replicas,
		RenewalWindow:     *renewWindow,
		LeaseTerm:         *lease,
		ScanInterval:      *interval,
		RepairBudget:      *budget,
		Health:            lors.NewHealthTracker(lors.HealthConfig{}),
		Publish: func(ctx context.Context, name string, ex *exnode.ExNode) error {
			xml, err := ex.Marshal()
			if err != nil {
				return err
			}
			return dvsClient.Replace(ctx, dvs.Key{Dataset: *dataset, ViewSet: name}, xml)
		},
	}
	if *lboneURL != "" {
		cfg.Locate = steward.LBoneLocator(&lbone.Client{BaseURL: *lboneURL}, *x, *y)
	}
	cfg.OnEvent = func(ev steward.Event) {
		if *verbose || ev.Type != steward.EventRenew {
			log.Printf("lfsteward: %s", ev)
		}
	}
	s := steward.New(cfg)

	// The fleet scraper is built before the stack so its endpoints mount
	// on the same mux and its critical alerts degrade the same /healthz.
	var fl *fleet.Fleet
	if *fleetScrape {
		if d.MetricsAddr() == "" {
			log.Fatalf("lfsteward: -fleet-scrape needs -metrics-addr")
		}
		fcfg := fleet.Config{
			Interval:    *fleetInterval,
			Replication: *replicas,
			Coverage:    s.ReplicaCoverage,
			// A depot dropping out of the matrix jumps the audit queue the
			// same way a firing latency alert does: its replicas get
			// re-verified now, not at the next scan tick.
			OnMemberState: func(m fleet.Member, from string) {
				if m.Kind == lbone.KindDepot && m.State == fleet.StateDown && m.ServiceAddr != "" {
					s.TriggerDepotAudit(m.ServiceAddr)
				}
			},
		}
		if *lboneURL != "" {
			fcfg.LBone = &lbone.Client{BaseURL: *lboneURL}
		}
		for _, peer := range strings.Split(*fleetPeers, ",") {
			if peer = strings.TrimSpace(peer); peer != "" {
				fcfg.Peers = append(fcfg.Peers, peer)
			}
		}
		fl = fleet.New(fcfg)
	}
	d.Extra = map[string]http.Handler{
		"/debug/fleet":      fl.Handler(),
		"/debug/fleet/tsdb": fl.TSDBHandler(),
	}
	d.ExtraHealth = []func() error{fl.HealthError}

	d.Run(func(ctx context.Context, stack *slo.Stack) error {
		defer dvsClient.CloseIdle()
		if stack.Enabled() {
			s.RegisterMetrics(nil)
		}
		// A firing depot alert jumps the queue: audit that depot's
		// replicas now instead of waiting out the scan interval.
		stack.Subscribe(steward.AlertTrigger(s))
		if fl != nil {
			// The scraper itself is part of the fleet it watches.
			fl.SetSelf(stack.Addr())
			fl.AddStaticPeer(stack.Addr(), lbone.KindSteward)
			// Fleet-scope alerts feed the same plumbing node alerts do: a
			// critical breach captures a forensic bundle and jumps the
			// steward's audit queue.
			fl.Subscribe(func(a slo.Alert) {
				if a.State == slo.StateFiring && a.Severity == slo.SeverityCritical {
					stack.Recorder.TriggerAsync("fleet:"+a.Rule, a.Reason)
				}
			})
			fl.Subscribe(steward.AlertTrigger(s))
		}

		// Adopt every view set the lattice defines; sets the DVS does not
		// know (not yet published, or published at different parameters)
		// are skipped with a warning.
		stack.SetStatus("adopting exNodes from DVS")
		adopted, missing := 0, 0
		for _, id := range p.AllViewSets() {
			key := dvs.Key{Dataset: *dataset, ViewSet: id.String()}
			docs, err := dvsClient.Get(ctx, key)
			if err != nil {
				if errors.Is(err, dvs.ErrMiss) {
					missing++
					continue
				}
				return fmt.Errorf("DVS get %s: %w", key, err)
			}
			ex, err := exnode.Unmarshal(docs[0])
			if err != nil {
				log.Printf("lfsteward: bad exNode for %s: %v", key, err)
				continue
			}
			if err := s.Adopt(id.String(), ex); err != nil {
				log.Printf("lfsteward: adopt %s: %v", key, err)
				continue
			}
			adopted++
		}
		if adopted == 0 {
			return fmt.Errorf("no exNodes to manage (%d view sets missing from DVS %s)", missing, *dvsAddr)
		}
		fmt.Printf("lfsteward: managing %d view sets of %q (%d not in DVS), target replication %d\n",
			adopted, *dataset, missing, *replicas)
		stack.MarkReady()

		// ParseViewSetKey round-trips the names we adopt; assert early so a
		// lattice/DVS mismatch is a startup error, not a runtime surprise.
		for _, name := range s.Objects() {
			if _, err := agent.ParseViewSetKey(name); err != nil {
				return fmt.Errorf("unparseable view set name %q: %w", name, err)
			}
		}

		if *once {
			fl.ScrapeOnce(ctx)
			rep, err := s.RunCycle(ctx)
			if err != nil {
				return err
			}
			fmt.Printf("lfsteward: cycle: %+v\n", rep)
			printStats(s.Stats())
			return nil
		}

		if fl != nil {
			go fl.Run(ctx.Done())

			if *edgeAddr != "" {
				// Demand-driven hot-set replication: the fleet scraper's
				// aggregated edge popularity feeds the replicator, which
				// warms the hottest view sets toward the edge ahead of
				// client demand.
				hs, err := steward.NewHotSetReplicator(steward.HotSetConfig{
					Feed: func(n int) []edge.HotItem {
						items := fl.HotItems(n)
						out := make([]edge.HotItem, len(items))
						for i, it := range items {
							out[i] = edge.HotItem{Hint: it.Hint, Count: float64(it.Count)}
						}
						return out
					},
					Warm: func(ctx context.Context, hint string) error {
						ex := s.ExNode(hint)
						if ex == nil {
							return fmt.Errorf("unmanaged view set %q", hint)
						}
						return edge.Warm(ctx, ex, *edgeAddr, hint, nil)
					},
				})
				if err != nil {
					return err
				}
				if stack.Enabled() {
					hs.RegisterMetrics(nil)
				}
				fl.Subscribe(func(a slo.Alert) {
					if a.State == slo.StateFiring {
						hs.Trigger()
					}
				})
				go hs.Run(ctx)
			}
		}

		if err := s.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("lfsteward: %v", err)
		}
		printStats(s.Stats())
		return nil
	})
}

func printStats(st steward.Stats) {
	fmt.Printf("lfsteward: %d cycles, %d extents audited, %d probes, %d renewals (%d failed), "+
		"%d verified (%d failed), %d/%d repairs, %d pruned, %d lost, %d republished (%d failed)\n",
		st.Cycles, st.ExtentsAudited, st.ReplicasProbed, st.LeasesRenewed, st.RenewFailures,
		st.PayloadsVerified, st.VerifyFailures, st.RepairsSucceeded, st.RepairsAttempted,
		st.ReplicasPruned, st.ExtentsLost, st.Republishes, st.PublishFailures)
}
