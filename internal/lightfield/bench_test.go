package lightfield

import (
	"bytes"
	"context"
	"math"
	"testing"

	"lonviz/internal/codec"
	"lonviz/internal/geom"
)

// benchParams is the database the repository benchmark (bench/) browses.
func benchParams() Params { return ScaledParams(5, 6, 100) }

// benchSets generates n view sets of the benchmark's database (procedural
// generator, seed 1), spread over the lattice.
func benchSets(b *testing.B, n int) []*ViewSet {
	b.Helper()
	p := benchParams()
	gen, err := NewProceduralGenerator(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := p.AllViewSets()
	sets := make([]*ViewSet, n)
	for k := range sets {
		sets[k], err = gen.GenerateViewSet(context.Background(), ids[k*len(ids)/n])
		if err != nil {
			b.Fatal(err)
		}
	}
	return sets
}

var benchSink any

func BenchmarkEncodeViewSet(b *testing.B) {
	p := benchParams()
	sets := benchSets(b, 4)
	var frameBytes int
	b.ReportAllocs()
	b.SetBytes(p.BytesPerViewSet())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := EncodeViewSet(sets[i%len(sets)], p, codec.DefaultCompression)
		if err != nil {
			b.Fatal(err)
		}
		frameBytes += len(frame)
		benchSink = frame
	}
	b.ReportMetric(float64(frameBytes)/float64(b.N)/1024, "frame-KiB")
}

func BenchmarkDecodeViewSetFrom(b *testing.B) {
	p := benchParams()
	sets := benchSets(b, 4)
	frames := make([][]byte, len(sets))
	for k, vs := range sets {
		var err error
		if frames[k], err = EncodeViewSet(vs, p, codec.DefaultCompression); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(p.BytesPerViewSet())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs, err := DecodeViewSetFrom(bytes.NewReader(frames[i%len(frames)]), p)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = vs
	}
}

// BenchmarkRenderView renders the benchmark's 128² display view with a
// warm renderer (camera cache built), the steady state of a browsing
// session.
func BenchmarkRenderView(b *testing.B) {
	p := benchParams()
	sets := benchSets(b, 1)
	prov := MapProvider{sets[0].ID: sets[0]}
	r, err := NewRenderer(p, prov)
	if err != nil {
		b.Fatal(err)
	}
	cam, err := p.ViewerCamera(geom.Spherical{Theta: math.Pi / 24, Phi: math.Pi / 24}, p.OuterRadius*1.6, 128)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := r.RenderView(cam); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(3 * cam.Res * cam.Res))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im, _, err := r.RenderView(cam)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = im
	}
}
