// Command depotd runs an IBP storage depot: the "router for data" of
// Logistical Networking. It serves the allocate/store/load/manage/copy
// protocol and optionally registers itself with an L-Bone directory,
// heartbeating its capacity.
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"lonviz/internal/daemon"
	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/obs"
	"lonviz/internal/obs/slo"
)

func main() {
	d := daemon.New("depotd")
	addr := flag.String("addr", "127.0.0.1:6714", "listen address")
	capacity := flag.Int64("capacity", 1<<30, "storage capacity in bytes")
	dir := flag.String("dir", "", "back allocations with files in this directory (default: memory)")
	maxLease := flag.Duration("max-lease", time.Hour, "maximum allocation lease")
	pipelineWindow := d.PipelineWindow("in-flight window granted to clients that negotiate pipelined mode, per connection (0 disables PIPELINE; clients fall back to serial)")
	admission := d.Admission()
	lboneURL := flag.String("lbone", "", "L-Bone base URL to register with (e.g. http://host:port)")
	x := flag.Float64("x", 0, "network coordinate X for L-Bone proximity")
	y := flag.Float64("y", 0, "network coordinate Y for L-Bone proximity")
	heartbeat := flag.Duration("heartbeat", 10*time.Second, "L-Bone heartbeat interval")
	flag.Parse()

	d.Run(func(ctx context.Context, stack *slo.Stack) error {
		depot, err := ibp.NewDepot(ibp.DepotConfig{Capacity: *capacity, MaxLease: *maxLease, Dir: *dir})
		if err != nil {
			return err
		}
		srv := ibp.NewServer(depot)
		srv.PipelineWindow = pipelineWindow()
		srv.Admission = admission.Gate()
		bound, err := srv.ListenAndServe(*addr)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		fmt.Printf("depotd: serving IBP on %s (capacity %d bytes, max lease %v)\n", bound, *capacity, *maxLease)

		if stack.Enabled() {
			obs.Default().RegisterSnapshot("depot", func() map[string]float64 {
				st := depot.Stat()
				return map[string]float64{
					"capacity":    float64(st.Capacity),
					"used":        float64(st.Used),
					"allocations": float64(st.Allocations),
					"expirations": float64(st.Expirations),
					"revocations": float64(st.Revocations),
				}
			})
		}
		// Register before declaring readiness: a depot nobody can discover
		// is not ready to serve the deployment.
		if *lboneURL != "" {
			d.Announce(ctx, stack, *lboneURL, *heartbeat, func() lbone.DepotRecord {
				st := depot.Stat()
				return lbone.DepotRecord{
					Addr: bound, Kind: lbone.KindDepot, X: *x, Y: *y,
					Capacity: st.Capacity, Free: st.Capacity - st.Used,
				}
			})
		}
		stack.MarkReady()

		<-ctx.Done()
		srv.Close()
		st := depot.Stat()
		fmt.Printf("depotd: shutting down; %d allocations, %d/%d bytes used, %d expirations, %d revocations\n",
			st.Allocations, st.Used, st.Capacity, st.Expirations, st.Revocations)
		return nil
	})
}
