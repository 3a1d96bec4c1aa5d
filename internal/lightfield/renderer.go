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

	// lay is the renderer's layout buffer, reused from frame to frame;
	// nil while a RenderView or Prepare holds it.
	lay atomic.Pointer[layout]
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

// RenderView reconstructs the view seen by cam. The camera should be
// outside the outer sphere looking toward the volume (the paper's external
// browsing regime). Scanlines render in parallel on GOMAXPROCS goroutines,
// this one included.
//
// A frame is two passes. The layout pass reads only the camera and the
// lattice: per pixel the ray, one quadratic for both spheres, acos and
// atan2 for (u,v), then the lattice cell with its corner weights and where
// the focal point projects in each corner camera (layout.pix). The shade
// pass resolves each cell's views through the Provider and does the
// bilinear fetch and blend. A frame whose camera Prepare laid out only
// shades; otherwise each worker lays a scanline out just before it shades
// it, so the layout is still in cache.
//
// A pixel's arithmetic is that of the per-ray lookup this kernel replaced
// (renderer_test.go keeps it as the oracle), operation for operation and in
// the same order, so frames are bit-identical; what changed is where each
// value is computed. Once per frame: everything that does not depend on the
// pixel (frame). Once per lattice cell a worker's rows enter: its corner
// cameras (camCell), and its views and whether their view sets are here
// (cell). Per pixel: the layout above, then per live tap a bilinear fetch.
func (r *Renderer) RenderView(cam *geom.Camera) (*render.Image, RenderStats, error) {
	im, err := render.NewImage(cam.Res)
	if err != nil {
		return nil, RenderStats{}, err
	}
	if err := r.buildCameras(); err != nil {
		return nil, RenderStats{}, err
	}
	l := r.takeLayout()
	defer r.lay.CompareAndSwap(nil, l)
	if l.cam != *cam || l.blend != r.Blend {
		l.reset(r, cam)
	}
	return im, l.shade(im), nil
}

// Prepare lays out the frame cam sees on a goroutine of its own and
// returns at once. Nothing the layout reads depends on a view set, so a
// caller that knows where the viewer will look can run it while the views
// are still on their way. A RenderView of the same camera (and the same
// Blend) then only shades, laying out itself whatever scanlines the
// goroutine has not reached; a RenderView of any other camera discards it.
func (r *Renderer) Prepare(cam *geom.Camera) {
	if cam.Res <= 0 || r.buildCameras() != nil {
		return // RenderView reports these
	}
	l := r.takeLayout()
	l.reset(r, cam)
	l.bg.Add(1)
	go l.layOutBackground()
	r.lay.CompareAndSwap(nil, l)
}

// takeLayout takes the renderer's layout buffer, or makes one if another
// RenderView or Prepare holds it; the holder puts it back when it is done.
func (r *Renderer) takeLayout() *layout {
	if l := r.lay.Swap(nil); l != nil {
		return l
	}
	return new(layout)
}

// frame is what a layout computes once per camera and its scanlines share,
// read-only.
type frame struct {
	res int // display resolution

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

func (f *frame) set(p *Params, cam *geom.Camera) {
	colDir := f.colDir[:0]
	*f = frame{
		res: cam.Res, eye: cam.Eye, up: cam.Up(),
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
	for x := 0; x < cam.Res; x++ {
		u := (2*(float64(x)+0.5)/float64(cam.Res) - 1) * f.halfH
		colDir = append(colDir, cam.Forward().Add(cam.Right().Scale(u)))
	}
	f.colDir = colDir
}

// corner is corner k of lattice cell (i, j), in the order (i,j), (i+1,j),
// (i,j+1), (i+1,j+1): its row clamped at the poles, its column wrapped.
func (f *frame) corner(i, j, k int) (ti, tj int) {
	ti = min(max(i+k&1, 0), f.rows-1)
	tj = (j + k>>1) % f.cols
	if tj < 0 {
		tj += f.cols
	}
	return ti, tj
}

// layout is the camera-only half of a frame, the layout pass's output and
// the shade pass's input. A renderer keeps one and reuses it frame after
// frame. rows says which scanlines are laid out, so a RenderView that joins
// an unfinished Prepare lays out the rest itself.
type layout struct {
	frame
	r       *Renderer
	cam     geom.Camera // the camera laid out
	blend   bool
	pix     []pixel        // res² pixels, row by row
	rows    []atomic.Int32 // per scanline: rowFree, rowTaken or rowLaid
	stop    atomic.Bool    // the background layout takes no further scanline
	bg      sync.WaitGroup // the background layout, while it runs
	back    layWorker      // the background layout's memory
	next    atomic.Int64   // the next scanline no shade worker has taken
	shaders []*shadeWorker // the shade workers' memory, one per worker
}

const (
	rowFree  int32 = iota // nobody has laid the scanline out
	rowTaken              // the background layout is laying it out
	rowLaid               // laid out
)

// pixel is one display pixel laid out: its lattice cell (unclamped,
// unwrapped; i is noRay for a ray that cannot see the volume), and for each
// of the cell's corners — with Blend off, only the nearest camera, in
// corner 0 — its weight and where the ray's focal point projects in the
// corner's view, px set to outside when it falls outside the view's frame.
type pixel struct {
	i, j int32
	wts  [4]float64
	at   [4][2]float64
}

const (
	noRay   = math.MinInt32
	outside = -1.0
)

// reset readies l to lay out cam's frame for r, after waiting for any
// background layout still running in it.
func (l *layout) reset(r *Renderer, cam *geom.Camera) {
	l.stop.Store(true)
	l.bg.Wait()
	l.stop.Store(false)
	l.r, l.cam, l.blend = r, *cam, r.Blend
	l.frame.set(&r.P, cam)
	n := cam.Res
	if cap(l.pix) < n*n {
		l.pix = make([]pixel, n*n)
	}
	l.pix = l.pix[:n*n]
	if cap(l.rows) < n {
		l.rows = make([]atomic.Int32, n)
	}
	l.rows = l.rows[:n]
	for y := range l.rows {
		l.rows[y].Store(rowFree)
	}
}

// layOutBackground is Prepare's goroutine: it lays out scanlines top to
// bottom until none is left or a RenderView has joined (stop).
func (l *layout) layOutBackground() {
	defer l.bg.Done()
	for y := range l.rows {
		if l.stop.Load() {
			return
		}
		if l.rows[y].CompareAndSwap(rowFree, rowTaken) {
			l.back.layOutRow(l, y)
			l.rows[y].Store(rowLaid)
		}
	}
}

// layWorker is the memory of a goroutine that lays out scanlines: the
// corner cameras of the lattice cells it has met. Cameras do not change,
// so an entry stays good from frame to frame.
type layWorker struct {
	cams [cellSlots]camCell
}

// camCell is a lattice cell's corner cameras: n of them, 4 blending and 1
// not; 0 marks an empty slot.
type camCell struct {
	i, j, n int
	cams    [4]*geom.Camera
}

// cellSlots sizes a worker's direct-mapped cell tables, indexed by the low
// two bits of the lattice row and the low six of the column. From browsing
// distance a frame crosses 15 cells of a 5 degree lattice and 54 of the
// paper's 2.5, a scanline runs along a row or two of them, and a worker's
// next scanline comes back to the same ones; beside a pole a scanline
// sweeps every column of the first rows. Cells that collide are resolved
// again.
const cellSlots = 256

func (w *layWorker) cell(l *layout, i, j, n int) *camCell {
	c := &w.cams[(i&3)<<6|j&63]
	if c.n != n || c.i != i || c.j != j {
		c.i, c.j, c.n = i, j, n
		for k := 0; k < n; k++ {
			ti, tj := l.corner(i, j, k)
			c.cams[k] = l.r.cams[ti*l.cols+tj]
		}
	}
	return c
}

// layOutRow is the layout pass over scanline y.
func (w *layWorker) layOutRow(l *layout, y int) {
	f := &l.frame
	n := 1
	if l.blend {
		n = 4
	}
	v := (1 - 2*(float64(y)+0.5)/float64(f.res)) * f.halfH
	rowDir := f.up.Scale(v)
	line := l.pix[y*f.res : (y+1)*f.res]
	for x := range line {
		p := &line[x]
		p.i = noRay
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
		if dl := d.Len(); dl != 0 {
			theta = math.Acos(geom.Clamp(d.Z/dl, -1, 1))
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
		var i, j int
		if l.blend {
			i, j = int(math.Floor(row)), int(math.Floor(col))
			ft, fp := row-float64(i), col-float64(j)
			p.wts = [4]float64{(1 - ft) * (1 - fp), ft * (1 - fp), (1 - ft) * fp, ft * fp}
		} else {
			i, j = int(math.Round(row)), int(math.Round(col))
			p.wts = [4]float64{1}
		}
		c := w.cell(l, i, j, n)
		for k, cam := range c.cams[:n] {
			// Camera.Project, inlined.
			d := focal.Sub(cam.Eye)
			depth := d.Dot(cam.Forward())
			p.at[k][0] = outside
			if depth <= 1e-12 {
				continue
			}
			pu := d.Dot(cam.Right()) / depth / f.sampleHalfH
			pv := d.Dot(cam.Up()) / depth / f.sampleHalfH
			px := (pu+1)/2*f.fsres - 0.5
			py := (1-pv)/2*f.fsres - 0.5
			if px < 0 || py < 0 || px > f.shi || py > f.shi {
				continue // focal point outside this sample view's frame
			}
			p.at[k] = [2]float64{px, py}
		}
		p.i, p.j = int32(i), int32(j)
	}
}

// shade is the shade pass over the frame l holds, into im, on GOMAXPROCS
// workers, this goroutine one of them. Workers take the next scanline
// nobody has: a frame is not held up by one that found its processor busy
// or asleep. A scanline not yet laid out is laid out by the worker that
// shades it; the one the background layout is on is waited for, and it
// stops after that one.
func (l *layout) shade(im *render.Image) RenderStats {
	l.stop.Store(true)
	l.next.Store(0)
	nw := min(runtime.GOMAXPROCS(0), l.res)
	for len(l.shaders) < nw {
		l.shaders = append(l.shaders, &shadeWorker{sets: make(map[ViewSetID]*ViewSet)})
	}
	var wg sync.WaitGroup
	for _, w := range l.shaders[1:nw] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.shadeRows(l, im)
		}()
	}
	l.shaders[0].shadeRows(l, im)
	wg.Wait()
	st := RenderStats{Pixels: l.res * l.res}
	for _, w := range l.shaders[:nw] {
		st.Filled += w.st.Filled
		st.MissingSet += w.st.MissingSet
	}
	st.Background = st.Pixels - st.Filled - st.MissingSet
	return st
}

// shadeWorker is one shade goroutine's memory: the cells it has resolved
// this frame, the provider's answers (nil: not here), asked once per view
// set per frame, and what it counted.
type shadeWorker struct {
	layWorker
	cells [cellSlots]cell
	sets  map[ViewSetID]*ViewSet
	st    RenderStats
}

// cell is one lattice cell resolved: the views a ray through it blends,
// one per corner in use (see frame.corner); with Blend off, the one
// nearest camera's.
type cell struct {
	i, j int // unclamped, unwrapped
	n    int // taps in use; 0 marks an empty slot
	taps [4]cellTap
}

// cellTap is one corner. pix is nil when the tap contributes nothing: its
// view set is not here (missing), or the set the provider gave does not
// hold the view.
type cellTap struct {
	pix     []byte
	missing bool
}

// shadeRows shades scanlines until none is left and counts the pixels it
// filled and those it left for an absent view set.
func (w *shadeWorker) shadeRows(l *layout, im *render.Image) {
	w.st = RenderStats{}
	clear(w.sets)
	for k := range w.cells {
		w.cells[k].n = 0
	}
	for y := int(l.next.Add(1)) - 1; y < l.res; y = int(l.next.Add(1)) - 1 {
		w.laidOut(l, y)
		w.shadeRow(l, y, im.Pix[3*y*l.res:3*(y+1)*l.res])
	}
}

// laidOut returns once scanline y is laid out: it was, this worker lays it
// out, or the background layout has finished it.
func (w *shadeWorker) laidOut(l *layout, y int) {
	row := &l.rows[y]
	for {
		switch row.Load() {
		case rowLaid:
			return
		case rowFree:
			if row.CompareAndSwap(rowFree, rowTaken) {
				w.layOutRow(l, y)
				row.Store(rowLaid)
				return
			}
		default:
			l.bg.Wait() // stop is set: this scanline is its last
		}
	}
}

// cell returns the resolved cell (i, j).
func (w *shadeWorker) cell(l *layout, i, j int) *cell {
	c := &w.cells[(i&3)<<6|j&63]
	if c.n == 0 || c.i != i || c.j != j {
		w.resolve(l, c, i, j)
	}
	return c
}

func (w *shadeWorker) resolve(l *layout, c *cell, i, j int) {
	c.i, c.j, c.n = i, j, 1
	if l.blend {
		c.n = 4
	}
	for k := 0; k < c.n; k++ {
		ti, tj := l.corner(i, j, k)
		t := &c.taps[k]
		*t = cellTap{}
		id := ViewSetID{R: ti / l.setL, C: tj / l.setL}
		vs, asked := w.sets[id]
		if !asked {
			if here, ok := l.r.Prov.ViewSet(id); ok {
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
		if view, err := vs.View(a, b); err == nil && view.Res == l.sres {
			t.pix = view.Pix
		}
	}
}

// shadeRow is the shade pass over scanline y, into out.
func (w *shadeWorker) shadeRow(l *layout, y int, out []byte) {
	sres := l.sres
	line := l.pix[y*l.res : (y+1)*l.res]
	for x := range line {
		p := &line[x]
		if p.i == noRay {
			continue
		}
		c := w.cell(l, int(p.i), int(p.j))
		var sumW, sumR, sumG, sumB float64
		missing := false
		for k := 0; k < c.n; k++ {
			t := &c.taps[k]
			if t.pix == nil {
				missing = missing || t.missing
				continue
			}
			px, py := p.at[k][0], p.at[k][1]
			if px < 0 {
				continue // outside
			}
			var pr, pg, pb float64
			if l.blend {
				// Image.SampleBilinear, inlined; px and py are inside
				// the view, so its clamp has nothing to do. q holds
				// texel (x0, y0); its right and lower neighbours are dx
				// and dy bytes on, or none at the view's last column and
				// row.
				x0, y0 := int(px), int(py)
				dx, dy := 3, 3*sres
				if x0 == sres-1 {
					dx = 0
				}
				if y0 == sres-1 {
					dy = 0
				}
				tx, ty := px-float64(x0), py-float64(y0)
				q := t.pix[3*(y0*sres+x0):]
				pr = lerp2(q[0], q[dx], q[dy], q[dy+dx], tx, ty)
				pg = lerp2(q[1], q[dx+1], q[dy+1], q[dy+dx+1], tx, ty)
				pb = lerp2(q[2], q[dx+2], q[dy+2], q[dy+dx+2], tx, ty)
			} else {
				s := t.pix[3*(int(py+0.5)*sres+int(px+0.5)):]
				pr, pg, pb = float64(s[0]), float64(s[1]), float64(s[2])
			}
			wt := p.wts[k]
			sumR += wt * pr
			sumG += wt * pg
			sumB += wt * pb
			sumW += wt
		}
		if sumW != 0 {
			inv := 1 / sumW
			out[3*x], out[3*x+1], out[3*x+2] = clampByte(sumR*inv), clampByte(sumG*inv), clampByte(sumB*inv)
			w.st.Filled++
		} else if missing {
			w.st.MissingSet++
		}
	}
}

// lerp2 is Image.SampleBilinear's blend of one channel, in its order.
func lerp2(p00, p10, p01, p11 byte, tx, ty float64) float64 {
	top := float64(p00) + (float64(p10)-float64(p00))*tx
	bot := float64(p01) + (float64(p11)-float64(p01))*tx
	return top + (bot-top)*ty
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
