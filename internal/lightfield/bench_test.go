package lightfield

import (
	"bytes"
	"context"
	"io"
	"math"
	"syscall"
	"testing"
	"time"

	"lonviz/internal/codec"
	"lonviz/internal/geom"
	"lonviz/internal/render"
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

// BenchmarkDecodeViewSetFrom decodes frames of the benchmark's database,
// "buffered" from a cached frame, "streamed" as a download delivers one,
// 64 KiB (a stripe) at a time, and "recycled" from a cached frame into the
// set the previous decode filled, as the viewer decodes (DecodeViewSetInto
// with a spare set). Beside wall time it reports the process's CPU time per
// decode (user + system, from getrusage), so a decode spread over several
// goroutines cannot hide extra work.
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
	for _, c := range []struct {
		name    string
		source  func(frame []byte) io.Reader
		recycle bool
	}{
		{"buffered", func(frame []byte) io.Reader { return bytes.NewReader(frame) }, false},
		{"streamed", func(frame []byte) io.Reader {
			sb := codec.NewStreamBuffer(frame)
			go func() {
				for n := 64 << 10; n < len(frame)+64<<10; n += 64 << 10 {
					sb.Advance(int64(min(n, len(frame))))
				}
			}()
			return sb.Reader()
		}, false},
		{"recycled", func(frame []byte) io.Reader { return bytes.NewReader(frame) }, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(p.BytesPerViewSet())
			b.ResetTimer()
			var spare *ViewSet
			cpu := cpuTime()
			for i := 0; i < b.N; i++ {
				vs, err := DecodeViewSetInto(c.source(frames[i%len(frames)]), p, spare)
				if err != nil {
					b.Fatal(err)
				}
				if c.recycle {
					spare = vs
				}
				benchSink = vs
			}
			b.ReportMetric(float64(cpuTime()-cpu)/1e6/float64(b.N), "cpu-ms/op")
		})
	}
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkRenderView renders the benchmark's 128² display view with a
// warm renderer (camera cache built), the steady state of a browsing
// session, holding one view set as the benchmark's viewer does
// (MaxDecoded = 1): "browse" from a cursor position of the benchmark's
// scripts inside a mid-latitude set, its neighbours absent; "pole" from
// beside the pole, where a frame sweeps every lattice column. Each renders
// two cameras a hair apart in turn, so that every frame is laid out, as a
// session's are. "layout" and "shade" time the browse frame's two passes
// apart, each on one goroutine: the layout as Prepare runs it, the shade
// of a laid-out frame into an image it reuses.
func BenchmarkRenderView(b *testing.B) {
	p := benchParams()
	sets := benchSets(b, 2) // r00c00 and r03c00
	cameras := func(b *testing.B, sp geom.Spherical) [2]*geom.Camera {
		var cams [2]*geom.Camera
		for k := range cams {
			var err error
			sp.Phi += 1e-9
			if cams[k], err = p.ViewerCamera(sp, p.OuterRadius*1.6, 128); err != nil {
				b.Fatal(err)
			}
		}
		return cams
	}
	browse := browseCursor(p, sets[1].ID)
	for _, c := range []struct {
		name string
		set  *ViewSet
		sp   geom.Spherical
	}{
		{"browse", sets[1], browse},
		{"pole", sets[0], geom.Spherical{Theta: math.Pi / 24, Phi: math.Pi / 24}},
	} {
		b.Run(c.name, func(b *testing.B) {
			r, err := NewRenderer(p, MapProvider{c.set.ID: c.set})
			if err != nil {
				b.Fatal(err)
			}
			cams := cameras(b, c.sp)
			for _, cam := range cams {
				if _, _, err := r.RenderView(cam); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.SetBytes(int64(3 * cams[0].Res * cams[0].Res))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				im, _, err := r.RenderView(cams[i%2])
				if err != nil {
					b.Fatal(err)
				}
				benchSink = im
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cams[0].Res*cams[0].Res), "ns/pixel")
		})
	}

	r, err := NewRenderer(p, MapProvider{sets[1].ID: sets[1]})
	if err != nil {
		b.Fatal(err)
	}
	if err := r.buildCameras(); err != nil {
		b.Fatal(err)
	}
	cam := cameras(b, browse)[0]
	l := new(layout)
	layOut := func() {
		l.reset(r, cam)
		l.bg.Add(1)
		l.layOutBackground()
	}
	b.Run("layout", func(b *testing.B) {
		layOut()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			layOut()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cam.Res*cam.Res), "ns/pixel")
	})
	b.Run("shade", func(b *testing.B) {
		layOut()
		im, err := render.NewImage(cam.Res)
		if err != nil {
			b.Fatal(err)
		}
		w := &shadeWorker{sets: make(map[ViewSetID]*ViewSet)}
		shade := func() {
			l.next.Store(0)
			w.shadeRows(l, im)
		}
		shade()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shade()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cam.Res*cam.Res), "ns/pixel")
	})
}
