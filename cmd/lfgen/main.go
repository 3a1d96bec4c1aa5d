// Command lfgen generates a light field database from a volume dataset:
// the paper's offline generation step (their 32-processor cluster run).
// It renders every sample view with the parallel ray caster (or the fast
// procedural generator with -procedural), compresses each view set with
// zlib, and writes one frame file per view set plus a manifest.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lonviz/internal/codec"
	"lonviz/internal/daemon"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs/slo"
	"lonviz/internal/volume"
)

func main() {
	d := daemon.New("lfgen")
	out := flag.String("out", "lfd", "output directory")
	res := flag.Int("res", 64, "sample view resolution r (paper: 200..600)")
	step := flag.Float64("step", 10, "lattice angular step in degrees (paper: 2.5)")
	l := flag.Int("l", 3, "view set side length l (paper: 6)")
	volSize := flag.Int("volume", 64, "synthetic negHip volume dimension (paper: 64)")
	dataset := flag.String("dataset", "neghip", "dataset: neghip | blobs | shell")
	procedural := flag.Bool("procedural", false, "use the fast procedural generator instead of ray casting")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel generation workers")
	seed := flag.Int64("seed", 1, "seed for synthetic data")
	flag.Parse()

	p := lightfield.ScaledParams(*step, *l, *res)
	if err := p.Validate(); err != nil {
		log.Fatalf("lfgen: %v", err)
	}
	d.Run(func(ctx context.Context, stack *slo.Stack) error {
		stack.MarkReady()
		fmt.Printf("lfgen: lattice %dx%d, %d view sets of %dx%d views at %dx%d px\n",
			p.Rows(), p.Cols(), p.NumViewSets(), *l, *l, *res, *res)
		fmt.Printf("lfgen: uncompressed database %d bytes\n", p.UncompressedDBBytes())

		var gen lightfield.Generator
		if *procedural {
			g, err := lightfield.NewProceduralGenerator(p, *seed)
			if err != nil {
				return err
			}
			gen = g
		} else {
			var vol *volume.Volume
			var err error
			switch *dataset {
			case "neghip":
				vol, err = volume.NegHip(*volSize)
			case "blobs":
				vol, err = volume.Blobs(*volSize, 12, *seed)
			case "shell":
				vol, err = volume.Shell(*volSize, 0.35, 0.05)
			default:
				return fmt.Errorf("unknown dataset %q", *dataset)
			}
			if err != nil {
				return err
			}
			g, err := lightfield.NewRaycastGenerator(p, vol, volume.DefaultNegHipTF())
			if err != nil {
				return err
			}
			gen = g
		}

		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		start := time.Now()
		build, err := lightfield.BuildDatabase(ctx, gen, *workers)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		var compressed int64
		for id, vs := range build.Sets {
			frame, err := lightfield.EncodeViewSet(vs, p, codec.DefaultCompression)
			if err != nil {
				return fmt.Errorf("encode %v: %w", id, err)
			}
			path := filepath.Join(*out, id.String()+".lvz")
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
			compressed += int64(len(frame))
		}
		manifest := filepath.Join(*out, "MANIFEST")
		mf, err := os.Create(manifest)
		if err != nil {
			return err
		}
		fmt.Fprintf(mf, "dataset=%s step=%g l=%d res=%d viewsets=%d uncompressed=%d compressed=%d\n",
			*dataset, *step, *l, *res, p.NumViewSets(), build.UncompressedBytes, compressed)
		mf.Close()

		elapsed := time.Since(start)
		fmt.Printf("lfgen: generated %d view sets in %v with %d workers\n",
			len(build.Sets), elapsed.Round(time.Millisecond), *workers)
		fmt.Printf("lfgen: %d -> %d bytes (%.2fx zlib, lossless)\n",
			build.UncompressedBytes, compressed, float64(build.UncompressedBytes)/float64(compressed))
		fmt.Printf("lfgen: wrote %s\n", *out)
		return nil
	})
}
