// Package render implements the light field generator's volume renderer: a
// front-to-back compositing ray caster parallelized over scanlines with a
// worker pool. The paper generated sample views on a 32-processor cluster;
// here the same embarrassingly parallel structure runs on GOMAXPROCS
// goroutines (see DESIGN.md, substitutions).
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
)

// Image is a square RGB image with 8-bit channels, stored row-major as
// R,G,B triples. It is the pixel payload of one sample view.
type Image struct {
	Res int
	Pix []byte // 3 * Res * Res
}

// NewImage allocates a black image of the given square resolution.
func NewImage(res int) (*Image, error) {
	if res <= 0 {
		return nil, fmt.Errorf("render: non-positive resolution %d", res)
	}
	return &Image{Res: res, Pix: make([]byte, 3*res*res)}, nil
}

// At returns the pixel at (x, y); (0,0) is top-left.
func (im *Image) At(x, y int) (r, g, b byte) {
	i := 3 * (y*im.Res + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set stores the pixel at (x, y).
func (im *Image) Set(x, y int, r, g, b byte) {
	i := 3 * (y*im.Res + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	pix := make([]byte, len(im.Pix))
	copy(pix, im.Pix)
	return &Image{Res: im.Res, Pix: pix}
}

// Equal reports whether two images have identical resolution and pixels.
func (im *Image) Equal(other *Image) bool {
	if other == nil || im.Res != other.Res {
		return false
	}
	for i := range im.Pix {
		if im.Pix[i] != other.Pix[i] {
			return false
		}
	}
	return true
}

// WritePNG encodes the image as PNG.
func (im *Image) WritePNG(w io.Writer) error {
	out := image.NewRGBA(image.Rect(0, 0, im.Res, im.Res))
	for y := 0; y < im.Res; y++ {
		for x := 0; x < im.Res; x++ {
			r, g, b := im.At(x, y)
			out.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 0xff})
		}
	}
	return png.Encode(w, out)
}

// SampleBilinear returns the bilinearly interpolated color at continuous
// pixel coordinates (fx, fy), clamping to the image border.
func (im *Image) SampleBilinear(fx, fy float64) (r, g, b float64) {
	clampf := func(v float64, hi int) float64 {
		if v < 0 {
			return 0
		}
		if v > float64(hi) {
			return float64(hi)
		}
		return v
	}
	fx = clampf(fx, im.Res-1)
	fy = clampf(fy, im.Res-1)
	x0, y0 := int(fx), int(fy)
	x1, y1 := x0+1, y0+1
	if x1 >= im.Res {
		x1 = im.Res - 1
	}
	if y1 >= im.Res {
		y1 = im.Res - 1
	}
	tx, ty := fx-float64(x0), fy-float64(y0)
	lerp2 := func(c00, c10, c01, c11 byte) float64 {
		top := float64(c00) + (float64(c10)-float64(c00))*tx
		bot := float64(c01) + (float64(c11)-float64(c01))*tx
		return top + (bot-top)*ty
	}
	i00 := 3 * (y0*im.Res + x0)
	i10 := 3 * (y0*im.Res + x1)
	i01 := 3 * (y1*im.Res + x0)
	i11 := 3 * (y1*im.Res + x1)
	r = lerp2(im.Pix[i00], im.Pix[i10], im.Pix[i01], im.Pix[i11])
	g = lerp2(im.Pix[i00+1], im.Pix[i10+1], im.Pix[i01+1], im.Pix[i11+1])
	b = lerp2(im.Pix[i00+2], im.Pix[i10+2], im.Pix[i01+2], im.Pix[i11+2])
	return r, g, b
}
