// interior_walkthrough: navigate through the inside of a volume using
// multiple light field databases (paper section 3.2 / the rail-track
// viewer it cites). A track of stations is generated offline with the
// clipped ray caster, published through the ordinary LoN streaming stack,
// and browsed with the multiview browser, which hands the viewer off
// between stations as the position moves.
//
// Run with:
//
//	go run ./examples/interior_walkthrough [-out dir]  # default: a new temporary directory
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/multiview"
	"lonviz/internal/volume"
)

func main() {
	out := flag.String("out", "", "directory for the PNG frames (default: a new temporary directory)")
	flag.Parse()
	// A track of three stations across the negHip molecule.
	template := lightfield.ScaledParams(30, 3, 48)
	template.InnerRadius = 0.9
	template.OuterRadius = 2.0
	track, err := multiview.NewTrack("neghip", template,
		[]geom.Vec3{geom.V(-0.3, 0, 0), geom.V(0, 0, 0), geom.V(0.3, 0, 0)}, 0.35)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interior_walkthrough: track of %d stations, station spheres r=%.2f/%.2f\n",
		len(track.Stations), track.Stations[0].P.InnerRadius, track.Stations[0].P.OuterRadius)

	// Offline generation: a clipped ray-cast database per station.
	vol, err := volume.NegHip(48)
	if err != nil {
		log.Fatal(err)
	}
	gens, err := multiview.StationGenerators(track, vol, volume.DefaultNegHipTF())
	if err != nil {
		log.Fatal(err)
	}

	// The ordinary streaming stack: depots + DVS + one server agent per
	// station dataset.
	var depots []string
	for i := 0; i < 2; i++ {
		dep, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 28, MaxLease: time.Hour})
		if err != nil {
			log.Fatal(err)
		}
		srv := ibp.NewServer(dep)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		depots = append(depots, addr)
	}
	dvsSrv := dvs.NewServer("")
	dvsAddr, err := dvsSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer dvsSrv.Close()

	start := time.Now()
	for dataset, gen := range gens {
		sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
			Dataset: dataset,
			Gen:     gen,
			Depots:  depots,
			DVS:     &dvs.Client{Addr: dvsAddr},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer sa.Close()
		if _, err := sa.PrecomputeAll(context.Background()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("interior_walkthrough: generated and published %d station databases in %v\n",
		len(gens), time.Since(start).Round(time.Millisecond))

	browser, err := multiview.NewBrowser(track, func(st multiview.Station) (agent.ViewSetSource, error) {
		return agent.NewClientAgent(agent.ClientAgentConfig{
			Dataset: st.Dataset,
			Params:  st.P,
			DVS:     &dvs.Client{Addr: dvsAddr},
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	// Walk a path that crosses station territories.
	walk := []geom.Vec3{
		geom.V(-1.5, 0.2, 0.1),
		geom.V(-0.9, 0.8, 0.2),
		geom.V(0, 1.1, 0.3),
		geom.V(0.9, 0.8, 0.2),
		geom.V(1.5, 0.2, 0.1),
	}
	dir, err := *out, os.MkdirAll(*out, 0o755)
	if dir == "" {
		dir, err = os.MkdirTemp("", "walkthrough_frames-")
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-22s %-9s %-10s %-10s\n", "move", "position", "station", "class", "total(s)")
	for i, pos := range walk {
		res, err := browser.MoveTo(context.Background(), pos)
		if err != nil {
			log.Fatalf("move %d: %v", i, err)
		}
		fmt.Printf("%-6d %-22s s%-8d %-10s %-10.4f\n",
			i+1, pos.String(), res.Station.Index, res.Record.Class, res.Record.Total.Seconds())
		im, _, err := browser.Render(pos, 160)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(fmt.Sprintf("%s/move%02d.png", dir, i))
		if err != nil {
			log.Fatal(err)
		}
		if err := im.WritePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	fmt.Printf("interior_walkthrough: wrote %s\n", dir+"/*.png")
}
