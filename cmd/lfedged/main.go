// Command lfedged runs the cooperative edge cache daemon: a shared,
// multi-tenant read-through cache speaking the IBP LOAD/STATUS subset,
// deployed between a site's client agents and the WAN depot pool. Client
// agents pointed at it (via -edge-addr / ClientAgentConfig.EdgeAddr)
// rewrite their exNodes so the edge is the preferred replica; the first
// agent to miss pulls each view set across the WAN once and every later
// access — from any tenant — is served at LAN cost. The hot set is
// exported at /metrics as edge.hot.* for lftop and the steward's
// replicator.
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"lonviz/internal/daemon"
	"lonviz/internal/edge"
	"lonviz/internal/lbone"
	"lonviz/internal/obs/slo"
)

func main() {
	d := daemon.New("lfedged")
	addr := flag.String("addr", "127.0.0.1:6730", "listen address")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "cache capacity in bytes")
	shards := flag.Int("shards", 0, "LRU shard count (0 = default 16, clamped to keep shards usefully sized)")
	fillTimeout := flag.Duration("fill-timeout", 30*time.Second, "max duration of one origin-depot fill")
	pipelineWindow := d.PipelineWindow("in-flight window for pipelined mode, both granted to clients and used on origin-depot fill connections (0 disables the grant, and clients fall back to kept untagged connections; fills then ask for the default)")
	popHalfLife := flag.Duration("pop-half-life", 30*time.Second, "popularity tracker decay half-life")
	admission := d.Admission()
	lboneURL := flag.String("lbone", "", "L-Bone base URL to announce membership to (e.g. http://host:port); lets a fleet scraper discover this edge")
	x := flag.Float64("x", 0, "network coordinate X for the L-Bone announcement")
	y := flag.Float64("y", 0, "network coordinate Y for the L-Bone announcement")
	heartbeat := flag.Duration("heartbeat", 10*time.Second, "L-Bone heartbeat interval")
	flag.Parse()

	d.Run(func(ctx context.Context, stack *slo.Stack) error {
		cache, err := edge.NewCache(edge.CacheConfig{
			CapacityBytes:  *cacheBytes,
			Shards:         *shards,
			FillTimeout:    *fillTimeout,
			HalfLife:       *popHalfLife,
			PipelineWindow: pipelineWindow(),
		})
		if err != nil {
			return err
		}
		cache.RegisterMetrics(nil)
		srv := edge.NewServer(cache)
		srv.PipelineWindow = pipelineWindow()
		srv.Admission = admission.Gate()
		bound, err := srv.ListenAndServe(*addr)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		fmt.Printf("lfedged: serving IBP edge cache on %s (capacity %d bytes)\n", bound, *cacheBytes)

		// The edge is not a depot — the L-Bone never hands it out for
		// allocation — but announcing membership (kind=edge, with the
		// metrics address) lets the steward's fleet scraper find it and
		// fold its hit rate and hot set into the cluster view.
		if *lboneURL != "" {
			d.Announce(ctx, stack, *lboneURL, *heartbeat, func() lbone.DepotRecord {
				st := cache.Stats()
				return lbone.DepotRecord{
					Addr: bound, Kind: lbone.KindEdge, X: *x, Y: *y,
					Capacity: st.Capacity, Free: st.Capacity - st.Used,
				}
			})
		}
		stack.MarkReady()

		<-ctx.Done()
		srv.Close()
		st := cache.Stats()
		hitRate := 0.0
		if total := st.Hits + st.Misses; total > 0 {
			hitRate = float64(st.Hits) / float64(total)
		}
		fmt.Printf("lfedged: shutting down; %d entries, %d/%d bytes, hit rate %.2f, %d fills (%d failed), %d evictions\n",
			st.Entries, st.Used, st.Capacity, hitRate, st.Fills, st.FillErrors, st.Evictions)
		return nil
	})
}
