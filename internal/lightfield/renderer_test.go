package lightfield

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"lonviz/internal/geom"
	"lonviz/internal/render"
)

// buildSmallDB builds a complete procedural database for renderer tests.
func buildSmallDB(t *testing.T, p Params) MapProvider {
	t.Helper()
	gen, err := NewProceduralGenerator(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildDatabase(context.Background(), gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	return MapProvider(res.Sets)
}

func TestNewRendererValidation(t *testing.T) {
	p := smallParams()
	if _, err := NewRenderer(p, nil); err == nil {
		t.Error("expected error for nil provider")
	}
	bad := p
	bad.Res = 0
	if _, err := NewRenderer(bad, MapProvider{}); err == nil {
		t.Error("expected error for invalid params")
	}
}

func TestRenderViewFromFullDB(t *testing.T) {
	p := smallParams()
	prov := buildSmallDB(t, p)
	r, err := NewRenderer(p, prov)
	if err != nil {
		t.Fatal(err)
	}
	sp := geom.Spherical{Theta: math.Pi / 2, Phi: 1.0}
	cam, err := p.ViewerCamera(sp, p.OuterRadius*1.5, 48)
	if err != nil {
		t.Fatal(err)
	}
	im, stats, err := r.RenderView(cam)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pixels != 48*48 {
		t.Errorf("Pixels = %d", stats.Pixels)
	}
	if stats.MissingSet != 0 {
		t.Errorf("MissingSet = %d with a full DB", stats.MissingSet)
	}
	if stats.Filled == 0 {
		t.Error("no pixels filled")
	}
	if stats.Background == 0 {
		t.Error("expected some background pixels around the silhouette")
	}
	// Center pixel sees the volume.
	if r8, g8, b8 := im.At(24, 24); r8 == 0 && g8 == 0 && b8 == 0 {
		t.Error("center pixel black")
	}
}

func TestRenderViewSingleViewSetSupportsItsWindow(t *testing.T) {
	// Paper: "the user console only needs to have the view set that
	// encompasses the current view angle". Rendering from the view set's
	// center direction with only that set plus nothing else must fill the
	// bulk of the image; some boundary pixels may blend into neighbor sets.
	p := smallParams()
	full := buildSmallDB(t, p)
	id := ViewSetID{R: 1, C: 2}
	only := MapProvider{id: full[id]}
	r, err := NewRenderer(p, only)
	if err != nil {
		t.Fatal(err)
	}
	center := p.SetCenterAngles(id)
	cam, err := p.ViewerCamera(center, p.OuterRadius*2, 32)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := r.RenderView(cam)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Filled == 0 {
		t.Fatal("single current view set filled nothing")
	}
	nonBG := stats.Filled + stats.MissingSet
	if nonBG == 0 || float64(stats.Filled)/float64(nonBG) < 0.5 {
		t.Errorf("current view set filled only %d of %d non-background pixels", stats.Filled, nonBG)
	}
}

func TestRenderViewMissingSetsCounted(t *testing.T) {
	p := smallParams()
	r, err := NewRenderer(p, MapProvider{}) // empty provider
	if err != nil {
		t.Fatal(err)
	}
	cam, err := p.ViewerCamera(geom.Spherical{Theta: math.Pi / 2, Phi: 0.3}, p.OuterRadius*1.5, 24)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := r.RenderView(cam)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Filled != 0 {
		t.Errorf("Filled = %d with empty provider", stats.Filled)
	}
	if stats.MissingSet == 0 {
		t.Error("missing sets not counted")
	}
}

func TestNearestVsBlendModes(t *testing.T) {
	p := smallParams()
	prov := buildSmallDB(t, p)
	r, _ := NewRenderer(p, prov)
	cam, _ := p.ViewerCamera(geom.Spherical{Theta: 1.4, Phi: 2.0}, p.OuterRadius*1.7, 24)
	r.Blend = true
	a, _, err := r.RenderView(cam)
	if err != nil {
		t.Fatal(err)
	}
	r.Blend = false
	b, _, err := r.RenderView(cam)
	if err != nil {
		t.Fatal(err)
	}
	// Both render content; they generally differ slightly.
	if a.Equal(b) {
		t.Log("blend and nearest identical (acceptable on tiny DB, but unusual)")
	}
}

func TestViewerCameraValidation(t *testing.T) {
	p := smallParams()
	if _, err := p.ViewerCamera(geom.Spherical{Theta: 1}, p.OuterRadius*0.5, 16); err == nil {
		t.Error("expected error for viewer inside outer sphere")
	}
}

func TestProjectInvertsPrimaryRay(t *testing.T) {
	p := smallParams()
	cam, err := p.Camera(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, px := range []int{0, 5, p.Res - 1} {
		for _, py := range []int{0, 7, p.Res - 1} {
			ray := cam.PrimaryRay(px, py)
			gx, gy, ok := cam.Project(ray.At(2.0))
			if !ok {
				t.Fatalf("Project failed for pixel (%d,%d)", px, py)
			}
			if math.Abs(gx-float64(px)) > 1e-9 || math.Abs(gy-float64(py)) > 1e-9 {
				t.Fatalf("Project(%d,%d) = (%v,%v)", px, py, gx, gy)
			}
		}
	}
}

// oracle is the per-ray lookup the scanline kernel replaced, kept as it
// was: every display ray rebuilds both spheres, intersects each on its own,
// and asks the provider, the camera table, ViewSet.View, Camera.Project and
// Image.SampleBilinear for every tap. The kernel must reproduce its frames
// bit for bit.
type oracle struct {
	p     Params
	prov  Provider
	blend bool
	cams  map[[2]int]*geom.Camera
}

func (o *oracle) camera(i, j int) *geom.Camera {
	if cam, ok := o.cams[[2]int{i, j}]; ok {
		return cam
	}
	cam, err := o.p.Camera(i, j)
	if err != nil {
		panic(err)
	}
	o.cams[[2]int{i, j}] = cam
	return cam
}

func (o *oracle) renderView(cam *geom.Camera) (*render.Image, RenderStats) {
	im, _ := render.NewImage(cam.Res)
	st := RenderStats{Pixels: cam.Res * cam.Res}
	for y := 0; y < cam.Res; y++ {
		for x := 0; x < cam.Res; x++ {
			cr, cg, cb, class := o.lookupRay(cam.PrimaryRayRaw(x, y))
			switch class {
			case 0:
				st.Background++
			case 1:
				st.Filled++
			case 2:
				st.MissingSet++
			}
			im.Set(x, y, cr, cg, cb)
		}
	}
	return im, st
}

// lookupRay maps one display ray through the 4-D database; class is 0 for
// background, 1 for filled, 2 for a pixel that needed an absent view set.
func (o *oracle) lookupRay(ray geom.Ray) (cr, cg, cb byte, class int) {
	inner := o.p.InnerSphere()
	outer := o.p.OuterSphere()
	tn, tf, ok := inner.IntersectRayGeneral(ray)
	if !ok || tf <= 0 {
		return 0, 0, 0, 0
	}
	if tn < 0 {
		tn = 0
	}
	focal := ray.At(tn)
	un, uf, ok := outer.IntersectRayGeneral(ray)
	if !ok {
		return 0, 0, 0, 0
	}
	tuv := un
	if tuv < 0 {
		tuv = uf
	}
	if tuv < 0 {
		return 0, 0, 0, 0
	}
	uv := outer.SphericalOf(ray.At(tuv))

	row, col := o.p.LatticeCoords(uv)
	var sumW, sumR, sumG, sumB float64
	missing := false
	taps, nTaps := o.cameraTaps(row, col)
	for _, s := range taps[:nTaps] {
		vs, ok := o.prov.ViewSet(o.p.ViewSetOf(s.i, s.j))
		if !ok {
			missing = true
			continue
		}
		px, py, ok := o.camera(s.i, s.j).Project(focal)
		if !ok {
			continue
		}
		if px < 0 || py < 0 || px > float64(o.p.Res-1) || py > float64(o.p.Res-1) {
			continue
		}
		view, err := vs.View(s.i-vs.ID.R*vs.L, s.j-vs.ID.C*vs.L)
		if err != nil {
			continue
		}
		var pr, pg, pb float64
		if o.blend {
			pr, pg, pb = view.SampleBilinear(px, py)
		} else {
			r8, g8, b8 := view.At(int(px+0.5), int(py+0.5))
			pr, pg, pb = float64(r8), float64(g8), float64(b8)
		}
		sumR += s.w * pr
		sumG += s.w * pg
		sumB += s.w * pb
		sumW += s.w
	}
	if sumW == 0 {
		if missing {
			return 0, 0, 0, 2
		}
		return 0, 0, 0, 0
	}
	inv := 1 / sumW
	return clampByte(sumR * inv), clampByte(sumG * inv), clampByte(sumB * inv), 1
}

type oracleTap struct {
	i, j int
	w    float64
}

func (o *oracle) cameraTaps(row, col float64) ([4]oracleTap, int) {
	rows, cols := o.p.Rows(), o.p.Cols()
	clampRow := func(i int) int {
		if i < 0 {
			return 0
		}
		if i >= rows {
			return rows - 1
		}
		return i
	}
	wrapCol := func(j int) int {
		j %= cols
		if j < 0 {
			j += cols
		}
		return j
	}
	var out [4]oracleTap
	if !o.blend {
		out[0] = oracleTap{i: clampRow(int(math.Round(row))), j: wrapCol(int(math.Round(col))), w: 1}
		return out, 1
	}
	i0 := int(math.Floor(row))
	j0 := int(math.Floor(col))
	ft := row - float64(i0)
	fp := col - float64(j0)
	out[0] = oracleTap{i: clampRow(i0), j: wrapCol(j0), w: (1 - ft) * (1 - fp)}
	out[1] = oracleTap{i: clampRow(i0 + 1), j: wrapCol(j0), w: ft * (1 - fp)}
	out[2] = oracleTap{i: clampRow(i0), j: wrapCol(j0 + 1), w: (1 - ft) * fp}
	out[3] = oracleTap{i: clampRow(i0 + 1), j: wrapCol(j0 + 1), w: ft * fp}
	return out, 4
}

// countingProvider counts ViewSet calls per view set.
type countingProvider struct {
	Provider
	mu    sync.Mutex
	calls map[ViewSetID]int
}

func (c *countingProvider) ViewSet(id ViewSetID) (*ViewSet, bool) {
	c.mu.Lock()
	c.calls[id]++
	c.mu.Unlock()
	return c.Provider.ViewSet(id)
}

// browseCursor is a cursor position of the kind the repository benchmark's
// scripts visit: inside view set id, 0.15 of its span off its centre both
// ways (the scripts stay within 0.2).
func browseCursor(p Params, id ViewSetID) geom.Spherical {
	c := p.SetCenterAngles(id)
	off := 0.15 * geom.Radians(p.AngularStepDeg) * float64(p.ViewSetL)
	return geom.Spherical{Theta: c.Theta - off, Phi: c.Phi - off}
}

// TestRenderMatchesPerRayOracle: frames and stats of the scanline kernel
// are those of the per-ray lookup, byte for byte, and no worker asks the
// provider for a view set twice in a frame.
func TestRenderMatchesPerRayOracle(t *testing.T) {
	small := smallParams()
	full := buildSmallDB(t, small)
	bench := benchParams()
	gen, err := NewProceduralGenerator(bench, 1)
	if err != nil {
		t.Fatal(err)
	}
	benchID := ViewSetID{R: 3, C: 5}
	benchSet, err := gen.GenerateViewSet(context.Background(), benchID)
	if err != nil {
		t.Fatal(err)
	}
	one := MapProvider{benchID: benchSet}

	orbit := func(p Params, sp geom.Spherical, dist float64, res int) *geom.Camera {
		cam, err := geom.OrbitCamera(p.Center, dist, sp, p.FovY()*p.OuterRadius/dist, res)
		if err != nil {
			t.Fatal(err)
		}
		return cam
	}
	cases := []struct {
		name string
		p    Params
		prov Provider
		sp   geom.Spherical
		dist float64 // in outer radii
		res  []int
	}{
		{"benchmark, one decoded set", bench, one, browseCursor(bench, benchID), 1.6, []int{128}},
		{"benchmark, set centre", bench, one, bench.SetCenterAngles(benchID), 1.6, []int{24}},
		{"full database", small, full, geom.Spherical{Theta: 1.4, Phi: 2.0}, 1.7, []int{1, 24, 128}},
		{"north pole", small, full, geom.Spherical{Theta: 0.01, Phi: 0.3}, 1.5, []int{24, 128}},
		{"south pole", small, full, geom.Spherical{Theta: math.Pi - 0.004, Phi: 4}, 1.5, []int{24}},
		{"phi seam", small, full, geom.Spherical{Theta: 1.2, Phi: 2*math.Pi - 0.01}, 1.6, []int{24, 128}},
		{"phi zero", small, full, geom.Spherical{Theta: 2.0, Phi: 0}, 2.5, []int{24}},
		{"inside the camera sphere", small, full, geom.Spherical{Theta: 1.1, Phi: 5}, 0.7, []int{24, 128}},
		{"half a database", small, MapProvider{{R: 0, C: 1}: full[ViewSetID{R: 0, C: 1}], {R: 1, C: 2}: full[ViewSetID{R: 1, C: 2}]},
			geom.Spherical{Theta: 1.5, Phi: 2.6}, 1.6, []int{24, 128}},
		{"empty provider", small, MapProvider{}, geom.Spherical{Theta: 1.5, Phi: 0.3}, 1.5, []int{1, 24}},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			for _, blend := range []bool{true, false} {
				for _, res := range c.res {
					counted := &countingProvider{Provider: c.prov, calls: map[ViewSetID]int{}}
					r, err := NewRenderer(c.p, counted)
					if err != nil {
						t.Fatal(err)
					}
					r.Blend = blend
					cam := orbit(c.p, c.sp, c.dist*c.p.OuterRadius, res)
					got, gotStats, err := r.RenderView(cam)
					if err != nil {
						t.Fatal(err)
					}
					o := &oracle{p: c.p, prov: c.prov, blend: blend, cams: map[[2]int]*geom.Camera{}}
					want, wantStats := o.renderView(cam)
					name := fmt.Sprintf("%s, blend %v, res %d, GOMAXPROCS %d", c.name, blend, res, procs)
					if !bytes.Equal(got.Pix, want.Pix) {
						t.Errorf("%s: frame differs from the per-ray oracle's", name)
					}
					if gotStats != wantStats {
						t.Errorf("%s: stats %+v, oracle %+v", name, gotStats, wantStats)
					}
					if res > 1 && len(c.prov.(MapProvider)) > 0 && wantStats.Filled == 0 {
						t.Errorf("%s: nothing filled, the case compares black frames", name)
					}
					for id, n := range counted.calls {
						if n > min(procs, res) {
							t.Errorf("%s: provider asked %d times for %v by %d workers", name, n, id, min(procs, res))
						}
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// layOutFirst lays out the first n scanlines of cam's frame into r's
// layout, as Prepare's goroutine would have by the time a RenderView
// joins it, and leaves the rest to the RenderView.
func layOutFirst(r *Renderer, cam *geom.Camera, n int) {
	if err := r.buildCameras(); err != nil {
		panic(err)
	}
	l := r.takeLayout()
	l.reset(r, cam)
	for y := 0; y < n; y++ {
		l.back.layOutRow(l, y)
		l.rows[y].Store(rowLaid)
	}
	r.lay.Store(l)
}

// awaitLayout waits for the layout Prepare started in r to end.
func awaitLayout(r *Renderer) {
	if l := r.lay.Load(); l != nil {
		l.bg.Wait()
	}
}

// TestPreparedFrameMatchesInline: a frame whose layout Prepare ran — to the
// end, joined while it runs, or with only its first scanlines done — is
// the frame a renderer that never prepared draws, pixels and stats.
func TestPreparedFrameMatchesInline(t *testing.T) {
	small := smallParams()
	full := buildSmallDB(t, small)
	bench := benchParams()
	gen, err := NewProceduralGenerator(bench, 1)
	if err != nil {
		t.Fatal(err)
	}
	benchID := ViewSetID{R: 3, C: 5}
	benchSet, err := gen.GenerateViewSet(context.Background(), benchID)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    Params
		prov Provider
		sp   geom.Spherical
		res  int
	}{
		{"browse", bench, MapProvider{benchID: benchSet}, browseCursor(bench, benchID), 128},
		{"pole", small, full, geom.Spherical{Theta: 0.01, Phi: 0.3}, 64},
	}
	modes := []struct {
		name    string
		prepare func(r *Renderer, cam *geom.Camera)
	}{
		{"finished", func(r *Renderer, cam *geom.Camera) { r.Prepare(cam); awaitLayout(r) }},
		{"joined", func(r *Renderer, cam *geom.Camera) { r.Prepare(cam) }},
		{"first third", func(r *Renderer, cam *geom.Camera) { layOutFirst(r, cam, cam.Res/3) }},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			for _, blend := range []bool{true, false} {
				cam, err := c.p.ViewerCamera(c.sp, c.p.OuterRadius*1.6, c.res)
				if err != nil {
					t.Fatal(err)
				}
				inline, err := NewRenderer(c.p, c.prov)
				if err != nil {
					t.Fatal(err)
				}
				inline.Blend = blend
				want, wantStats, err := inline.RenderView(cam)
				if err != nil {
					t.Fatal(err)
				}
				if wantStats.Filled == 0 {
					t.Fatalf("%s: nothing filled, the case compares black frames", c.name)
				}
				for _, m := range modes {
					r, err := NewRenderer(c.p, c.prov)
					if err != nil {
						t.Fatal(err)
					}
					r.Blend = blend
					m.prepare(r, cam)
					got, gotStats, err := r.RenderView(cam)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s, %s, blend %v, GOMAXPROCS %d", c.name, m.name, blend, procs)
					if !bytes.Equal(got.Pix, want.Pix) {
						t.Errorf("%s: frame differs from the inline frame", name)
					}
					if gotStats != wantStats {
						t.Errorf("%s: stats %+v, inline %+v", name, gotStats, wantStats)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestLayoutForAnotherCameraIsDiscarded: a finished layout is used only by
// a RenderView of its own camera. Change the cursor position, the distance,
// the resolution or Blend, and the frame is laid out anew: it is the frame
// of a renderer that never prepared.
func TestLayoutForAnotherCameraIsDiscarded(t *testing.T) {
	p := smallParams()
	prov := buildSmallDB(t, p)
	sp := geom.Spherical{Theta: 1.4, Phi: 2.0}
	dist := p.OuterRadius * 1.6
	const res = 48
	prepared, err := p.ViewerCamera(sp, dist, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		sp       geom.Spherical
		dist     float64
		res      int
		blendOff bool
	}{
		{name: "sp", sp: geom.Spherical{Theta: 1.4, Phi: 2.05}, dist: dist, res: res},
		{name: "dist", sp: sp, dist: dist * 1.1, res: res},
		{name: "res", sp: sp, dist: dist, res: res + 1},
		{name: "blend", sp: sp, dist: dist, res: res, blendOff: true},
	} {
		cam, err := p.ViewerCamera(c.sp, c.dist, c.res)
		if err != nil {
			t.Fatal(err)
		}
		inline, _ := NewRenderer(p, prov)
		inline.Blend = !c.blendOff
		want, wantStats, err := inline.RenderView(cam)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := NewRenderer(p, prov)
		r.Prepare(prepared)
		awaitLayout(r)
		stale, _, err := r.RenderView(prepared)
		if err != nil {
			t.Fatal(err)
		}
		if c.res == res && bytes.Equal(stale.Pix, want.Pix) {
			t.Fatalf("%s changed: the prepared camera's frame is the new camera's, the case proves nothing", c.name)
		}
		r.Blend = !c.blendOff
		got, gotStats, err := r.RenderView(cam)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Pix, want.Pix) || gotStats != wantStats {
			t.Errorf("%s changed: frame or stats (%+v, want %+v) drawn from the other camera's layout", c.name, gotStats, wantStats)
		}
	}
}
