// Package volume provides regular scalar volume datasets, trilinear
// sampling, central-difference gradients, and piecewise-linear transfer
// functions — the substrate the light field generator renders from.
//
// The paper's test dataset, negHip (the electrical potential of a negative
// high-energy protein at 64x64x64), is not redistributable, so NegHip
// synthesizes a stand-in: a superposition of positive and negative Gaussian
// charges arranged like a small molecule, producing the same mixture of
// semi-transparent lobes and opaque cores that the paper renders.
package volume

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"lonviz/internal/geom"
)

// Volume is a regular grid of scalar samples in [0,1], laid out x-fastest.
// The volume occupies the world-space axis-aligned box [Origin,
// Origin+Size].
type Volume struct {
	NX, NY, NZ int
	Origin     geom.Vec3
	Size       geom.Vec3
	Data       []float32
}

// New allocates a zero-filled volume with the given dimensions occupying
// the unit cube centered at the world origin.
func New(nx, ny, nz int) (*Volume, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("volume: non-positive dimensions %dx%dx%d", nx, ny, nz)
	}
	return &Volume{
		NX:     nx,
		NY:     ny,
		NZ:     nz,
		Origin: geom.V(-0.5, -0.5, -0.5),
		Size:   geom.V(1, 1, 1),
		Data:   make([]float32, nx*ny*nz),
	}, nil
}

// Bounds returns the world-space bounding box of the volume.
func (v *Volume) Bounds() geom.Box {
	return geom.Box{Min: v.Origin, Max: v.Origin.Add(v.Size)}
}

// index returns the flat index of voxel (i,j,k). Callers must pass in-range
// coordinates.
func (v *Volume) index(i, j, k int) int { return (k*v.NY+j)*v.NX + i }

// At returns the voxel value at (i,j,k), clamping coordinates to the grid.
func (v *Volume) At(i, j, k int) float32 {
	i = clampInt(i, 0, v.NX-1)
	j = clampInt(j, 0, v.NY-1)
	k = clampInt(k, 0, v.NZ-1)
	return v.Data[v.index(i, j, k)]
}

// Set stores value at voxel (i,j,k). Out-of-range coordinates are an error.
func (v *Volume) Set(i, j, k int, val float32) error {
	if i < 0 || i >= v.NX || j < 0 || j >= v.NY || k < 0 || k >= v.NZ {
		return fmt.Errorf("volume: voxel (%d,%d,%d) out of range %dx%dx%d", i, j, k, v.NX, v.NY, v.NZ)
	}
	v.Data[v.index(i, j, k)] = val
	return nil
}

// Sample returns the trilinearly interpolated scalar value at world point p.
// Points outside the volume sample as 0.
func (v *Volume) Sample(p geom.Vec3) float32 {
	// Convert to continuous voxel coordinates with samples at voxel centers.
	gx := (p.X - v.Origin.X) / v.Size.X * float64(v.NX)
	gy := (p.Y - v.Origin.Y) / v.Size.Y * float64(v.NY)
	gz := (p.Z - v.Origin.Z) / v.Size.Z * float64(v.NZ)
	if gx < 0 || gy < 0 || gz < 0 || gx > float64(v.NX) || gy > float64(v.NY) || gz > float64(v.NZ) {
		return 0
	}
	gx -= 0.5
	gy -= 0.5
	gz -= 0.5
	i0 := int(math.Floor(gx))
	j0 := int(math.Floor(gy))
	k0 := int(math.Floor(gz))
	fx := float32(gx - float64(i0))
	fy := float32(gy - float64(j0))
	fz := float32(gz - float64(k0))

	c000 := v.At(i0, j0, k0)
	c100 := v.At(i0+1, j0, k0)
	c010 := v.At(i0, j0+1, k0)
	c110 := v.At(i0+1, j0+1, k0)
	c001 := v.At(i0, j0, k0+1)
	c101 := v.At(i0+1, j0, k0+1)
	c011 := v.At(i0, j0+1, k0+1)
	c111 := v.At(i0+1, j0+1, k0+1)

	c00 := c000 + (c100-c000)*fx
	c10 := c010 + (c110-c010)*fx
	c01 := c001 + (c101-c001)*fx
	c11 := c011 + (c111-c011)*fx
	c0 := c00 + (c10-c00)*fy
	c1 := c01 + (c11-c01)*fy
	return c0 + (c1-c0)*fz
}

// Gradient estimates the scalar-field gradient at world point p by central
// differences in world space. It is used for shading during generation.
func (v *Volume) Gradient(p geom.Vec3) geom.Vec3 {
	hx := v.Size.X / float64(v.NX)
	hy := v.Size.Y / float64(v.NY)
	hz := v.Size.Z / float64(v.NZ)
	dx := float64(v.Sample(p.Add(geom.V(hx, 0, 0)))-v.Sample(p.Sub(geom.V(hx, 0, 0)))) / (2 * hx)
	dy := float64(v.Sample(p.Add(geom.V(0, hy, 0)))-v.Sample(p.Sub(geom.V(0, hy, 0)))) / (2 * hy)
	dz := float64(v.Sample(p.Add(geom.V(0, 0, hz)))-v.Sample(p.Sub(geom.V(0, 0, hz)))) / (2 * hz)
	return geom.V(dx, dy, dz)
}

// MinMax returns the smallest and largest scalar values in the volume.
func (v *Volume) MinMax() (lo, hi float32) {
	if len(v.Data) == 0 {
		return 0, 0
	}
	lo, hi = v.Data[0], v.Data[0]
	for _, x := range v.Data {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Normalize rescales the data linearly so that values span [0,1]. A
// constant volume becomes all zeros.
func (v *Volume) Normalize() {
	lo, hi := v.MinMax()
	span := hi - lo
	if span == 0 {
		for i := range v.Data {
			v.Data[i] = 0
		}
		return
	}
	inv := 1 / span
	for i, x := range v.Data {
		v.Data[i] = (x - lo) * inv
	}
}

// NormalizeSymmetric rescales a signed field so that raw 0 maps exactly to
// 0.5 and the largest magnitude maps to 0 or 1 — the right normalization
// for potential fields whose neutral value must land on the transfer
// function's transparent midpoint. An all-zero volume becomes all 0.5.
func (v *Volume) NormalizeSymmetric() {
	var maxAbs float32
	for _, x := range v.Data {
		a := x
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range v.Data {
			v.Data[i] = 0.5
		}
		return
	}
	inv := 0.5 / maxAbs
	for i, x := range v.Data {
		v.Data[i] = 0.5 + x*inv
	}
}

const volumeMagic = "LVVOL1\n"

// WriteTo serializes the volume in a simple binary format:
// magic, dims (3x int32), origin+size (6x float64), raw float32 data LE.
func (v *Volume) WriteTo(w io.Writer) (int64, error) {
	var n int64
	m, err := io.WriteString(w, volumeMagic)
	n += int64(m)
	if err != nil {
		return n, err
	}
	hdr := []interface{}{
		int32(v.NX), int32(v.NY), int32(v.NZ),
		v.Origin.X, v.Origin.Y, v.Origin.Z,
		v.Size.X, v.Size.Y, v.Size.Z,
	}
	for _, f := range hdr {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return n, err
		}
	}
	n += 3*4 + 6*8
	if err := binary.Write(w, binary.LittleEndian, v.Data); err != nil {
		return n, err
	}
	n += int64(4 * len(v.Data))
	return n, nil
}

// Read deserializes a volume written by WriteTo.
func Read(r io.Reader) (*Volume, error) {
	magic := make([]byte, len(volumeMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("volume: reading magic: %w", err)
	}
	if string(magic) != volumeMagic {
		return nil, errors.New("volume: bad magic")
	}
	var nx, ny, nz int32
	for _, p := range []*int32{&nx, &ny, &nz} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if nx <= 0 || ny <= 0 || nz <= 0 || int64(nx)*int64(ny)*int64(nz) > 1<<30 {
		return nil, fmt.Errorf("volume: implausible dimensions %dx%dx%d", nx, ny, nz)
	}
	var o, s [3]float64
	for i := range o {
		if err := binary.Read(r, binary.LittleEndian, &o[i]); err != nil {
			return nil, err
		}
	}
	for i := range s {
		if err := binary.Read(r, binary.LittleEndian, &s[i]); err != nil {
			return nil, err
		}
	}
	v := &Volume{
		NX: int(nx), NY: int(ny), NZ: int(nz),
		Origin: geom.V(o[0], o[1], o[2]),
		Size:   geom.V(s[0], s[1], s[2]),
		Data:   make([]float32, int(nx)*int(ny)*int(nz)),
	}
	if err := binary.Read(r, binary.LittleEndian, v.Data); err != nil {
		return nil, err
	}
	return v, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
