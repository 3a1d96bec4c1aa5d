package lightfield

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"lonviz/internal/geom"
	"lonviz/internal/render"
)

// ViewSetID identifies a view set by its block position in the lattice:
// R in [0, SetRows), C in [0, SetCols).
type ViewSetID struct {
	R, C int
}

// String renders the ID in the "r12c05" form used as dictionary keys.
func (id ViewSetID) String() string { return fmt.Sprintf("r%02dc%02d", id.R, id.C) }

// ViewSetOf returns the view set containing lattice camera (i, j).
func (p Params) ViewSetOf(i, j int) ViewSetID {
	return ViewSetID{R: i / p.ViewSetL, C: j / p.ViewSetL}
}

// ValidID reports whether id addresses a view set inside this database.
func (p Params) ValidID(id ViewSetID) bool {
	return id.R >= 0 && id.R < p.SetRows() && id.C >= 0 && id.C < p.SetCols()
}

// AllViewSets enumerates every view set ID in row-major order.
func (p Params) AllViewSets() []ViewSetID {
	out := make([]ViewSetID, 0, p.NumViewSets())
	for r := 0; r < p.SetRows(); r++ {
		for c := 0; c < p.SetCols(); c++ {
			out = append(out, ViewSetID{R: r, C: c})
		}
	}
	return out
}

// Neighbors returns the up-to-8 neighboring view sets of id. The column
// direction wraps (phi is periodic); the row direction clamps at the poles.
func (p Params) Neighbors(id ViewSetID) []ViewSetID {
	var out []ViewSetID
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			r := id.R + dr
			if r < 0 || r >= p.SetRows() {
				continue
			}
			c := (id.C + dc) % p.SetCols()
			if c < 0 {
				c += p.SetCols()
			}
			n := ViewSetID{R: r, C: c}
			if n != id { // tiny lattices can wrap onto themselves
				out = append(out, n)
			}
		}
	}
	return dedupIDs(out)
}

func dedupIDs(ids []ViewSetID) []ViewSetID {
	seen := make(map[ViewSetID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// SetCenterAngles returns the spherical direction at the center of a view
// set's angular span.
func (p Params) SetCenterAngles(id ViewSetID) geom.Spherical {
	i := id.R*p.ViewSetL + p.ViewSetL/2
	j := id.C*p.ViewSetL + p.ViewSetL/2
	// For even L the "center" camera is offset half a step; average the two
	// middle positions for a true center.
	theta := (p.ThetaOf(i-1) + p.ThetaOf(i)) / 2
	phi := (p.PhiOf(j-1) + p.PhiOf(j)) / 2
	if p.ViewSetL%2 == 1 {
		theta = p.ThetaOf(id.R*p.ViewSetL + p.ViewSetL/2)
		phi = p.PhiOf(id.C*p.ViewSetL + p.ViewSetL/2)
	}
	return geom.Spherical{Theta: theta, Phi: phi}
}

// AngularDistToSet returns the great-circle angle between a direction and
// the center of view set id. The client agent's prestaging stage orders
// transfers by this distance ("proximity to cursor", Figure 5).
func (p Params) AngularDistToSet(sp geom.Spherical, id ViewSetID) float64 {
	return geom.AngularDist(sp, p.SetCenterAngles(id))
}

// ViewSet is an l x l block of sample views — the unit of network transfer.
type ViewSet struct {
	ID    ViewSetID
	L     int
	Res   int
	Views []*render.Image // row-major L*L, never nil after generation
}

// NewViewSet allocates a view set with black images.
func NewViewSet(id ViewSetID, l, res int) (*ViewSet, error) {
	if l <= 0 || res <= 0 {
		return nil, fmt.Errorf("lightfield: invalid view set dims l=%d res=%d", l, res)
	}
	vs := &ViewSet{ID: id, L: l, Res: res, Views: make([]*render.Image, l*l)}
	for i := range vs.Views {
		im, err := render.NewImage(res)
		if err != nil {
			return nil, err
		}
		vs.Views[i] = im
	}
	return vs, nil
}

// holds reports whether vs is a complete block of l x l views of res².
func (vs *ViewSet) holds(l, res int) bool {
	if vs == nil || vs.L != l || vs.Res != res || len(vs.Views) != l*l {
		return false
	}
	for _, im := range vs.Views {
		if im == nil || im.Res != res || len(im.Pix) != 3*res*res {
			return false
		}
	}
	return true
}

// View returns the sample view at local position (a, b) within the block,
// a, b in [0, L).
func (vs *ViewSet) View(a, b int) (*render.Image, error) {
	if a < 0 || a >= vs.L || b < 0 || b >= vs.L {
		return nil, fmt.Errorf("lightfield: view (%d,%d) outside %dx%d view set", a, b, vs.L, vs.L)
	}
	return vs.Views[a*vs.L+b], nil
}

// LatticePos returns the global lattice indices of local view (a, b).
func (vs *ViewSet) LatticePos(a, b int) (i, j int) {
	return vs.ID.R*vs.L + a, vs.ID.C*vs.L + b
}

// Equal reports deep equality of two view sets.
func (vs *ViewSet) Equal(other *ViewSet) bool {
	if other == nil || vs.ID != other.ID || vs.L != other.L || vs.Res != other.Res {
		return false
	}
	for i := range vs.Views {
		if !vs.Views[i].Equal(other.Views[i]) {
			return false
		}
	}
	return true
}

// A marshalled view set is viewSetMagic, a 10-byte header (R and C as
// uint16, L as uint8, Res as uint32, one format-flags byte), then the stored
// pixels of the L*L views.
const (
	viewSetMagic  = "LVVS1\x00"
	viewSetHdrLen = len(viewSetMagic) + 10

	// flagInterView: views follow in serpentine order (odd block rows
	// right to left, so consecutive views are always lattice neighbours),
	// the first as is and each later one as its byte-wise difference from
	// the one before. Without it, views are row-major and stored as is.
	flagInterView = 1
)

// serpentine returns the index into Views of the k-th view in serpentine
// order.
func serpentine(l, k int) int {
	a, b := k/l, k%l
	if a%2 == 1 {
		b = l - 1 - b
	}
	return a*l + b
}

// Marshal serializes the view set using the occlusion mask implied by the
// database geometry (paper: "we can naturally save storage by not storing
// portions of the 4D database that will remain empty"). Pixels whose primary
// ray misses the inner (focal) sphere can never see the volume; they are
// omitted from the byte stream and restored as background on Unmarshal. Both
// sides recompute the mask from Params, so it costs no wire bytes.
//
// Neighbouring cameras see nearly the same image and the mask is the same
// for every camera, so stored pixel k of one view lines up with stored pixel
// k of the next: views are written with flagInterView, which leaves the
// compressor small residuals where plain pixels would have repeated 25 KB
// apart.
func (vs *ViewSet) Marshal(p Params) ([]byte, error) {
	if vs.L != p.ViewSetL || vs.Res != p.Res {
		return nil, fmt.Errorf("lightfield: view set %dx%d/r%d does not match params %dx%d/r%d",
			vs.L, vs.L, vs.Res, p.ViewSetL, p.ViewSetL, p.Res)
	}
	m, err := maskCache.get(p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, viewSetHdrLen+len(vs.Views)*m.stored)
	copy(buf, viewSetMagic)
	hdr := buf[len(viewSetMagic):]
	binary.LittleEndian.PutUint16(hdr[0:], uint16(vs.ID.R))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(vs.ID.C))
	hdr[4] = byte(vs.L)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(vs.Res))
	hdr[9] = flagInterView
	vs.writeViews(buf[viewSetHdrLen:], m, true)
	if !residualsPay(vs, m, buf[viewSetHdrLen:]) {
		hdr[9] = 0
		vs.writeViews(buf[viewSetHdrLen:], m, false)
	}
	return buf, nil
}

// writeViews fills out with the stored pixels of every view, inter-view
// coded (see flagInterView) or plain.
func (vs *ViewSet) writeViews(out []byte, m *viewMask, interView bool) {
	var prev []byte
	for k := range vs.Views {
		cur := vs.Views[k].Pix
		if interView {
			cur = vs.Views[serpentine(vs.L, k)].Pix
		}
		for _, r := range m.runs {
			if prev == nil {
				copy(out[:r.n], cur[r.off:])
			} else {
				subBytes(out[:r.n], cur[r.off:], prev[r.off:])
			}
			out = out[r.n:]
		}
		if interView {
			prev = cur
		}
	}
}

// residualsPay decides, from the bytes themselves, whether the inter-view
// residuals of vs will deflate smaller than its pixels. On a fine lattice
// (5 degrees and below) neighbouring views differ by little and the
// residuals win by 15 to 35 %; on a coarse one (15 degrees and up) they are
// noisier than the images and lose by as much. The measure is the order-0
// entropy of each stream. Deflate also finds repeats, and finds more of
// them in pixels than in residuals, so the residuals have to be ahead by a
// margin: over lattices of 2.5 to 45 degrees (docs/PERFORMANCE.md) the
// deflated sizes cross where the residuals are 0.6 to 0.8 bit per byte
// ahead.
func residualsPay(vs *ViewSet, m *viewMask, residuals []byte) bool {
	const (
		margin = 0.75 // bits per byte
		stride = 4    // a quarter of the bytes is sample enough; coprime to the 3 channels
	)
	var pix, res [256]int
	for _, v := range vs.Views {
		for _, r := range m.runs {
			for i := r.off; i < r.off+r.n; i += stride {
				pix[v.Pix[i]]++
			}
		}
	}
	for i := 0; i < len(residuals); i += stride {
		res[residuals[i]]++
	}
	return entropy(&res)+margin < entropy(&pix)
}

// entropy returns the order-0 entropy of a byte histogram, in bits per
// byte.
func entropy(hist *[256]int) float64 {
	n := 0
	for _, c := range hist {
		n += c
	}
	var h float64
	for _, c := range hist {
		if c > 0 {
			q := float64(c) / float64(n)
			h -= q * math.Log2(q)
		}
	}
	return h
}

// checkPayloadLen checks a payload's length against what p implies. Its
// callers check before they allocate anything, which covers truncation and
// trailing bytes both.
func checkPayloadLen(n int, p Params, m *viewMask) error {
	if want := viewSetHdrLen + p.ViewSetL*p.ViewSetL*m.stored; n != want {
		return fmt.Errorf("lightfield: view set payload is %d bytes, params l=%d res=%d store %d",
			n, p.ViewSetL, p.Res, want)
	}
	return nil
}

// readViewSet is the one decode loop: given a marshalled view set's header
// and view(k), which returns the stored bytes of the k-th view in payload
// order, it places each view with the mask runs in the view's Pix, adding
// the previous view's pixels when the payload is inter-view coded — one
// pass, each pixel written once. The views are old's if old has the
// payload's dimensions (see DecodeViewSetInto), else new.
func readViewSet(head []byte, p Params, m *viewMask, old *ViewSet, view func(k int) ([]byte, error)) (*ViewSet, error) {
	if string(head[:len(viewSetMagic)]) != viewSetMagic {
		return nil, errors.New("lightfield: bad view set magic")
	}
	h := head[len(viewSetMagic):]
	id := ViewSetID{
		R: int(binary.LittleEndian.Uint16(h[0:])),
		C: int(binary.LittleEndian.Uint16(h[2:])),
	}
	l := int(h[4])
	res := int(binary.LittleEndian.Uint32(h[5:]))
	if l != p.ViewSetL || res != p.Res {
		return nil, fmt.Errorf("lightfield: payload dims l=%d res=%d do not match params l=%d res=%d",
			l, res, p.ViewSetL, p.Res)
	}
	if !p.ValidID(id) {
		return nil, fmt.Errorf("lightfield: payload view set %v outside database", id)
	}
	flags := h[9]
	if flags&^flagInterView != 0 {
		return nil, fmt.Errorf("lightfield: unknown view set format flags %#x", flags)
	}
	vs := old
	if vs.holds(l, res) {
		vs.ID = id
	} else {
		var err error
		if vs, err = NewViewSet(id, l, res); err != nil {
			return nil, err
		}
	}
	var prev []byte
	for k := range vs.Views {
		src, err := view(k)
		if err != nil {
			return nil, fmt.Errorf("lightfield: view set pixel data: %w", err)
		}
		cur := vs.Views[k].Pix
		if flags&flagInterView != 0 {
			cur = vs.Views[serpentine(l, k)].Pix
		}
		for _, r := range m.runs {
			if prev == nil {
				copy(cur[r.off:], src[:r.n])
			} else {
				addBytes(cur[r.off:r.off+r.n], src, prev[r.off:])
			}
			src = src[r.n:]
		}
		if flags&flagInterView != 0 {
			prev = cur
		}
	}
	return vs, nil
}

// laneHi is the top bit of each of a word's eight byte lanes. The two
// kernels below do the codec's only per-byte arithmetic eight lanes at a
// time: the low seven bits of every lane are added or subtracted in one
// word operation that cannot carry across lanes, and the top bits are put
// back with an exclusive or.
const laneHi = 0x8080808080808080

// subBytes sets dst[i] = a[i] - b[i] (mod 256) for every i in dst.
func subBytes(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		x, y := binary.LittleEndian.Uint64(a[i:]), binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(dst[i:], ((x|laneHi)-(y&^laneHi))^((x^^y)&laneHi))
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] - b[i]
	}
}

// addBytes sets dst[i] = a[i] + b[i] (mod 256) for every i in dst.
func addBytes(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		x, y := binary.LittleEndian.Uint64(a[i:]), binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(dst[i:], ((x&^laneHi)+(y&^laneHi))^((x^y)&laneHi))
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// Bitmask is a simple bit set over pixel indices.
type Bitmask struct {
	n    int
	bits []uint64
}

// NewBitmask allocates an all-false mask of n bits.
func NewBitmask(n int) *Bitmask {
	return &Bitmask{n: n, bits: make([]uint64, (n+63)/64)}
}

// Get reports bit i.
func (m *Bitmask) Get(i int) bool { return m.bits[i/64]&(1<<(i%64)) != 0 }

// Set sets bit i to v.
func (m *Bitmask) Set(i int, v bool) {
	if v {
		m.bits[i/64] |= 1 << (i % 64)
	} else {
		m.bits[i/64] &^= 1 << (i % 64)
	}
}

// Count returns the number of set bits.
func (m *Bitmask) Count() int {
	total := 0
	for _, w := range m.bits {
		total += popcount(w)
	}
	return total
}

// Len returns the mask size in bits.
func (m *Bitmask) Len() int { return m.n }

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// computeMask builds the mask for the canonical camera.
func computeMask(p Params) (*Bitmask, error) {
	cam, err := geom.OrbitCamera(p.Center, p.OuterRadius,
		geom.Spherical{Theta: math.Pi / 2, Phi: 0}, p.FovY(), p.Res)
	if err != nil {
		return nil, err
	}
	inner := p.InnerSphere()
	m := NewBitmask(p.Res * p.Res)
	for y := 0; y < p.Res; y++ {
		for x := 0; x < p.Res; x++ {
			r := cam.PrimaryRay(x, y)
			if _, tf, ok := inner.IntersectRay(r); ok && tf > 0 {
				m.Set(y*p.Res+x, true)
			}
		}
	}
	return m, nil
}
