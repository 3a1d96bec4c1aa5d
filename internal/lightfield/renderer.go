package lightfield

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"lonviz/internal/geom"
	"lonviz/internal/render"
)

// Provider supplies view sets to the client-side renderer. The simplest
// provider is a map of everything (local browsing); the streaming client
// wraps its agent cache in this interface.
type Provider interface {
	// ViewSet returns the view set with the given ID if locally available.
	ViewSet(id ViewSetID) (*ViewSet, bool)
}

// MapProvider is an in-memory Provider.
type MapProvider map[ViewSetID]*ViewSet

// ViewSet implements Provider.
func (m MapProvider) ViewSet(id ViewSetID) (*ViewSet, bool) {
	vs, ok := m[id]
	return vs, ok
}

// RenderStats reports what happened during one novel-view render.
type RenderStats struct {
	Pixels     int // total pixels rendered
	Background int // rays that missed the focal sphere (guaranteed empty)
	Filled     int // pixels reconstructed from sample views
	MissingSet int // pixels that needed an unavailable view set
}

// Renderer reconstructs novel views from a light field database by 4-D
// table lookup (paper section 3.1): each display ray is mapped to
// (s,t,u,v), the nearest sample cameras on the (u,v) sphere are found, the
// ray's focal-sphere point (s,t) is projected into each, and the results
// are blended — quadrilinear interpolation overall. No volume data and no
// graphics acceleration are touched at view time; this is why the paper's
// client runs on PDAs.
type Renderer struct {
	P    Params
	Prov Provider
	// Blend selects camera blending: true (default via NewRenderer) blends
	// the 4 nearest sample cameras; false uses nearest-camera lookup only.
	Blend bool

	// cams caches sample cameras per lattice index; building a camera per
	// ray would dominate render time.
	camsOnce sync.Once
	cams     []*geom.Camera
	camsErr  error
}

// NewRenderer validates params and returns a blending renderer.
func NewRenderer(p Params, prov Provider) (*Renderer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if prov == nil {
		return nil, fmt.Errorf("lightfield: nil provider")
	}
	return &Renderer{P: p, Prov: prov, Blend: true}, nil
}

// buildCameras fills the sample camera cache on first use.
func (r *Renderer) buildCameras() error {
	r.camsOnce.Do(func() {
		rows, cols := r.P.Rows(), r.P.Cols()
		r.cams = make([]*geom.Camera, rows*cols)
		for ci := 0; ci < rows; ci++ {
			for cj := 0; cj < cols; cj++ {
				cam, err := r.P.Camera(ci, cj)
				if err != nil {
					r.camsErr = err
					return
				}
				r.cams[ci*cols+cj] = cam
			}
		}
	})
	return r.camsErr
}

// CurrentViewSetID returns the view set that supports viewing from
// direction sp — the one containing the nearest sample camera.
func (r *Renderer) CurrentViewSetID(sp geom.Spherical) ViewSetID {
	i, j := r.P.NearestCamera(sp)
	return r.P.ViewSetOf(i, j)
}

// RenderView reconstructs the view seen by cam. The camera should be
// outside the outer sphere looking toward the volume (the paper's external
// browsing regime). Scanlines render in parallel on GOMAXPROCS goroutines,
// this one included; lookups touch only immutable data, so no locking is
// needed.
//
// A pixel's arithmetic is that of the per-ray lookup this kernel replaced
// (renderer_test.go keeps it as the oracle), operation for operation and in
// the same order, so frames are bit-identical; what changed is where each
// value is computed. Once per frame: everything below that does not depend
// on the pixel (frame). Once per lattice cell a worker's rows enter: its
// corner cameras, their views and whether their view sets are here (cell).
// Per pixel: the ray, one quadratic for both spheres, acos and atan2 for
// (u,v), then per live tap three dot products and a bilinear fetch.
func (r *Renderer) RenderView(cam *geom.Camera) (*render.Image, RenderStats, error) {
	im, err := render.NewImage(cam.Res)
	if err != nil {
		return nil, RenderStats{}, err
	}
	if err := r.buildCameras(); err != nil {
		return nil, RenderStats{}, err
	}
	f := r.newFrame(cam, im)
	nw := runtime.GOMAXPROCS(0)
	if nw > cam.Res {
		nw = cam.Res
	}
	// Workers take the next scanline nobody has: a frame is not held up by
	// one that found its processor busy or asleep.
	perWorker := make([]RenderStats, nw)
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			perWorker[w] = f.renderRows()
		}(w)
	}
	perWorker[0] = f.renderRows()
	wg.Wait()
	stats := RenderStats{Pixels: cam.Res * cam.Res}
	for _, st := range perWorker {
		stats.Filled += st.Filled
		stats.MissingSet += st.MissingSet
	}
	stats.Background = stats.Pixels - stats.Filled - stats.MissingSet
	return im, stats, nil
}

// frame is what one RenderView computes once and its workers share,
// read-only.
type frame struct {
	r     *Renderer
	im    *render.Image
	blend bool
	next  atomic.Int64 // the next scanline nobody has taken

	// The viewer: a pixel's ray direction is colDir[x] + up*v(y), the sum
	// Camera.PrimaryRayRaw forms, in its order.
	eye, up geom.Vec3
	colDir  []geom.Vec3
	halfH   float64

	// The two concentric spheres: oc = eye - center and oc.oc - radius²
	// for each, the terms of the ray-sphere quadratic that do not depend
	// on the ray.
	center, oc  geom.Vec3
	cIn, cOut   float64
	rows, cols  int
	setL        int // lattice cameras along a view set's side
	frows       float64
	fcols       float64
	sres        int     // sample view resolution
	fsres, shi  float64 // float64(sres), float64(sres-1)
	sampleHalfH float64
}

func (r *Renderer) newFrame(cam *geom.Camera, im *render.Image) *frame {
	p := &r.P
	f := &frame{
		r: r, im: im, blend: r.Blend,
		eye: cam.Eye, up: cam.Up(), colDir: make([]geom.Vec3, cam.Res),
		// The cameras keep tan(fov/2) to themselves; Tan is a pure
		// function of a field nothing writes after LookAt, so these are
		// the values PrimaryRayRaw and Project use.
		halfH: math.Tan(cam.FovY / 2), sampleHalfH: math.Tan(p.FovY() / 2),
		center: p.Center, oc: cam.Eye.Sub(p.Center),
		rows: p.Rows(), cols: p.Cols(), setL: p.ViewSetL,
		sres: p.Res, fsres: float64(p.Res), shi: float64(p.Res - 1),
	}
	f.frows, f.fcols = float64(f.rows), float64(f.cols)
	f.cIn = f.oc.Len2() - p.InnerRadius*p.InnerRadius
	f.cOut = f.oc.Len2() - p.OuterRadius*p.OuterRadius
	for x := range f.colDir {
		u := (2*(float64(x)+0.5)/float64(cam.Res) - 1) * f.halfH
		f.colDir[x] = cam.Forward().Add(cam.Right().Scale(u))
	}
	return f
}

// cell is one lattice cell resolved: the sample cameras a ray through it
// blends — its four corners in the order (i,j), (i+1,j), (i,j+1),
// (i+1,j+1), rows clamped at the poles and columns wrapped, or with Blend
// off the one nearest camera — each with its view's pixels.
type cell struct {
	i, j int // unclamped, unwrapped
	n    int // taps in use; 0 marks an empty slot
	taps [4]cellTap
}

// cellTap is one corner. view is nil when the tap contributes nothing:
// its view set is not here (missing), or the set the provider gave does
// not hold the view.
type cellTap struct {
	cam     *geom.Camera
	view    *render.Image
	missing bool
}

// cellSlots sizes a worker's direct-mapped cell table, indexed by the low
// two bits of the lattice row and the low six of the column. From browsing
// distance a frame crosses 15 cells of a 5 degree lattice and 54 of the
// paper's 2.5, a scanline runs along a row or two of them, and a worker's
// next scanline comes back to the same ones; beside a pole a scanline
// sweeps every column of the first rows. Cells that collide are resolved
// again.
const cellSlots = 256

// worker is one scanline goroutine's memory: the cells it has resolved
// and the provider's answers (nil: not here), asked once per view set.
type worker struct {
	f     *frame
	cells [cellSlots]cell
	sets  map[ViewSetID]*ViewSet
}

// cell returns the resolved cell (i, j).
func (w *worker) cell(i, j int) *cell {
	c := &w.cells[(i&3)<<6|j&63]
	if c.n == 0 || c.i != i || c.j != j {
		w.resolve(c, i, j)
	}
	return c
}

func (w *worker) resolve(c *cell, i, j int) {
	f := w.f
	c.i, c.j, c.n = i, j, 1
	if f.blend {
		c.n = 4
	}
	for k := 0; k < c.n; k++ {
		ti := min(max(i+k&1, 0), f.rows-1)
		tj := (j + k>>1) % f.cols
		if tj < 0 {
			tj += f.cols
		}
		t := &c.taps[k]
		*t = cellTap{cam: f.r.cams[ti*f.cols+tj]}
		id := ViewSetID{R: ti / f.setL, C: tj / f.setL}
		vs, asked := w.sets[id]
		if !asked {
			if here, ok := f.r.Prov.ViewSet(id); ok {
				vs = here
			}
			w.sets[id] = vs
		}
		if vs == nil {
			t.missing = true
			continue
		}
		// A view whose resolution is not the database's cannot be
		// sampled with the database's projection.
		a, b := ti-vs.ID.R*vs.L, tj-vs.ID.C*vs.L
		if view, err := vs.View(a, b); err == nil && view.Res == f.sres {
			t.view = view
		}
	}
}

// renderRows is one worker: it renders scanlines until none is left and
// counts the pixels it filled and those it left for an absent view set.
func (f *frame) renderRows() (st RenderStats) {
	w := &worker{f: f, sets: make(map[ViewSetID]*ViewSet)}
	res, blend := f.im.Res, f.blend
	for y := int(f.next.Add(1)) - 1; y < res; y = int(f.next.Add(1)) - 1 {
		v := (1 - 2*(float64(y)+0.5)/float64(res)) * f.halfH
		rowDir := f.up.Scale(v)
		out := f.im.Pix[3*y*res : 3*(y+1)*res]
		for x := 0; x < res; x++ {
			dir := f.colDir[x].Add(rowDir)

			// (s,t): entry point on the focal sphere. Rays that miss it can
			// never see the volume (same predicate as the storage occlusion
			// mask). a and b serve the camera sphere below as well.
			a := dir.Dot(dir)
			b := 2 * f.oc.Dot(dir)
			disc := b*b - 4*a*f.cIn
			if a == 0 || disc < 0 {
				continue
			}
			sq := math.Sqrt(disc)
			if (-b+sq)/(2*a) <= 0 {
				continue
			}
			tn := (-b - sq) / (2 * a)
			if tn < 0 {
				tn = 0
			}
			focal := f.eye.Add(dir.Scale(tn))

			// (u,v): intersection with the camera sphere on the viewer's side.
			disc = b*b - 4*a*f.cOut
			if disc < 0 {
				continue
			}
			sq = math.Sqrt(disc)
			tuv := (-b - sq) / (2 * a)
			if tuv < 0 {
				tuv = (-b + sq) / (2 * a) // viewer inside the camera sphere: use the exit point
			}
			if tuv < 0 {
				continue
			}
			var theta, phi float64
			d := f.eye.Add(dir.Scale(tuv)).Sub(f.center)
			if l := d.Len(); l != 0 {
				theta = math.Acos(geom.Clamp(d.Z/l, -1, 1))
				if phi = math.Atan2(d.Y, d.X); phi < 0 {
					phi += 2 * math.Pi
				}
			}
			row := theta/math.Pi*f.frows - 0.5
			col := phi/(2*math.Pi)*f.fcols - 0.5
			if col < 0 {
				col += f.fcols
			}

			// The cell, and each corner's bilinear weight; with Blend off,
			// pure table lookup: the nearest stored sample of the nearest
			// camera (paper 3.1 — "simply a sequence of table lookup
			// operations").
			var c *cell
			wts := [4]float64{1}
			if blend {
				i0, j0 := int(math.Floor(row)), int(math.Floor(col))
				ft, fp := row-float64(i0), col-float64(j0)
				wts = [4]float64{(1 - ft) * (1 - fp), ft * (1 - fp), (1 - ft) * fp, ft * fp}
				c = w.cell(i0, j0)
			} else {
				c = w.cell(int(math.Round(row)), int(math.Round(col)))
			}
			var sumW, sumR, sumG, sumB float64
			missing := false
			for k := 0; k < c.n; k++ {
				t := &c.taps[k]
				if t.view == nil {
					missing = missing || t.missing
					continue
				}
				pix := t.view.Pix
				// Camera.Project, inlined.
				d := focal.Sub(t.cam.Eye)
				depth := d.Dot(t.cam.Forward())
				if depth <= 1e-12 {
					continue
				}
				pu := d.Dot(t.cam.Right()) / depth / f.sampleHalfH
				pv := d.Dot(t.cam.Up()) / depth / f.sampleHalfH
				px := (pu+1)/2*f.fsres - 0.5
				py := (1-pv)/2*f.fsres - 0.5
				if px < 0 || py < 0 || px > f.shi || py > f.shi {
					continue // focal point outside this sample view's frame
				}
				var pr, pg, pb float64
				if blend {
					// Image.SampleBilinear, inlined; px and py are inside
					// the view, so its clamp has nothing to do.
					x0, y0 := int(px), int(py)
					x1, y1 := min(x0+1, f.sres-1), min(y0+1, f.sres-1)
					tx, ty := px-float64(x0), py-float64(y0)
					texel := func(x, y int) []byte { return pix[3*(y*f.sres+x):][:3] }
					p00, p10, p01, p11 := texel(x0, y0), texel(x1, y0), texel(x0, y1), texel(x1, y1)
					lerp2 := func(ch int) float64 {
						top := float64(p00[ch]) + (float64(p10[ch])-float64(p00[ch]))*tx
						bot := float64(p01[ch]) + (float64(p11[ch])-float64(p01[ch]))*tx
						return top + (bot-top)*ty
					}
					pr, pg, pb = lerp2(0), lerp2(1), lerp2(2)
				} else {
					s := pix[3*(int(py+0.5)*f.sres+int(px+0.5)):]
					pr, pg, pb = float64(s[0]), float64(s[1]), float64(s[2])
				}
				sumR += wts[k] * pr
				sumG += wts[k] * pg
				sumB += wts[k] * pb
				sumW += wts[k]
			}
			if sumW != 0 {
				inv := 1 / sumW
				out[3*x], out[3*x+1], out[3*x+2] = clampByte(sumR*inv), clampByte(sumG*inv), clampByte(sumB*inv)
				st.Filled++
			} else if missing {
				st.MissingSet++
			}
		}
	}
	return st
}

func clampByte(x float64) byte {
	if x <= 0 {
		return 0
	}
	if x >= 255 {
		return 255
	}
	return byte(x + 0.5)
}

// ViewerCamera builds a client camera at distance dist from the database
// center along direction sp, looking at the center — the standard external
// browsing camera.
func (p Params) ViewerCamera(sp geom.Spherical, dist float64, res int) (*geom.Camera, error) {
	if dist <= p.OuterRadius {
		return nil, fmt.Errorf("lightfield: viewer distance %v must exceed outer radius %v", dist, p.OuterRadius)
	}
	return geom.OrbitCamera(p.Center, dist, sp, p.FovY()*p.OuterRadius/dist, res)
}
