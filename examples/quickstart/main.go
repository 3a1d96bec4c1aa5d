// Quickstart: build a small spherical light field database from the
// synthetic negHip volume with the parallel ray caster, then browse it
// locally — rendering novel views by pure table lookup — and write a few
// PNG frames (the paper's Figure 6 screenshots).
//
// Run with:
//
//	go run ./examples/quickstart [-out dir]  # default: a new temporary directory
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"lonviz/internal/codec"
	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
	"lonviz/internal/volume"
)

func main() {
	out := flag.String("out", "", "directory for the PNG frames (default: a new temporary directory)")
	flag.Parse()
	// 1. The dataset: a 64^3 potential field standing in for negHip.
	vol, err := volume.NegHip(64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("quickstart: synthesized 64^3 negHip potential field")

	// 2. Database geometry: a coarse lattice so generation takes seconds.
	// The paper uses 2.5 degree steps with l=6 at up to 600x600.
	p := lightfield.ScaledParams(30, 3, 64) // 6x12 cameras, 2x4 view sets
	gen, err := lightfield.NewRaycastGenerator(p, vol, volume.DefaultNegHipTF())
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	db, err := lightfield.BuildDatabase(context.Background(), gen, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quickstart: ray-cast %d view sets (%d sample views) in %v\n",
		len(db.Sets), p.Rows()*p.Cols(), time.Since(start).Round(time.Millisecond))

	// 3. Compression: every view set is zlib-compressed for transport.
	var raw, packed int64
	for _, vs := range db.Sets {
		frame, err := lightfield.EncodeViewSet(vs, p, codec.DefaultCompression)
		if err != nil {
			log.Fatal(err)
		}
		raw += p.BytesPerViewSet()
		packed += int64(len(frame))
	}
	fmt.Printf("quickstart: database %d bytes raw, %d compressed (%.1fx lossless)\n",
		raw, packed, float64(raw)/float64(packed))

	// 4. Novel views: pure 4-D lookup, no volume access, no GPU.
	r, err := lightfield.NewRenderer(p, lightfield.MapProvider(db.Sets))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := *out, os.MkdirAll(*out, 0o755)
	if dir == "" {
		dir, err = os.MkdirTemp("", "quickstart_frames-")
	}
	if err != nil {
		log.Fatal(err)
	}
	views := []geom.Spherical{
		{Theta: 1.2, Phi: 0.6},
		{Theta: 1.6, Phi: 2.4},
		{Theta: 0.8, Phi: 4.4},
	}
	for i, sp := range views {
		cam, err := p.ViewerCamera(sp, p.OuterRadius*1.6, 200)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		im, stats, err := r.RenderView(cam)
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("%s/view%d.png", dir, i)
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := im.WritePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("quickstart: %s rendered in %v (%d px filled, %d background)\n",
			name, time.Since(t0).Round(time.Microsecond), stats.Filled, stats.Background)
	}
	fmt.Printf("quickstart: done — open %s\n", dir+"/*.png")
}
