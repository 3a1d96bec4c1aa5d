package volume

import (
	"fmt"
	"sort"
)

// RGBA is a premultiplied-alpha color sample produced by a transfer
// function, components in [0,1].
type RGBA struct {
	R, G, B, A float32
}

// TFPoint is one control point of a piecewise-linear transfer function.
type TFPoint struct {
	Value      float32 // scalar value in [0,1]
	R, G, B, A float32
}

// TransferFunction maps scalar values to color and opacity by piecewise
// linear interpolation between control points, with a precomputed lookup
// table for speed on the rendering hot path.
type TransferFunction struct {
	points []TFPoint
	lut    []RGBA
}

const tfLUTSize = 1024

// NewTransferFunction builds a transfer function from control points. At
// least two points are required; they are sorted by Value and must span
// distinct values.
func NewTransferFunction(points []TFPoint) (*TransferFunction, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("volume: transfer function needs >= 2 control points, got %d", len(points))
	}
	ps := make([]TFPoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Value < ps[j].Value })
	if ps[0].Value == ps[len(ps)-1].Value {
		return nil, fmt.Errorf("volume: transfer function control points all at value %v", ps[0].Value)
	}
	tf := &TransferFunction{points: ps, lut: make([]RGBA, tfLUTSize)}
	for i := range tf.lut {
		x := float32(i) / float32(tfLUTSize-1)
		tf.lut[i] = tf.eval(x)
	}
	return tf, nil
}

// eval interpolates the control points directly (used to build the LUT).
func (tf *TransferFunction) eval(x float32) RGBA {
	ps := tf.points
	if x <= ps[0].Value {
		p := ps[0]
		return RGBA{p.R, p.G, p.B, p.A}
	}
	if x >= ps[len(ps)-1].Value {
		p := ps[len(ps)-1]
		return RGBA{p.R, p.G, p.B, p.A}
	}
	// Find the segment containing x.
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Value >= x }) // first >= x
	a, b := ps[i-1], ps[i]
	if b.Value == a.Value {
		return RGBA{b.R, b.G, b.B, b.A}
	}
	t := (x - a.Value) / (b.Value - a.Value)
	return RGBA{
		R: a.R + (b.R-a.R)*t,
		G: a.G + (b.G-a.G)*t,
		B: a.B + (b.B-a.B)*t,
		A: a.A + (b.A-a.A)*t,
	}
}

// Lookup returns the color/opacity for scalar value x in [0,1] from the
// precomputed table. Values outside [0,1] clamp.
func (tf *TransferFunction) Lookup(x float32) RGBA {
	if x <= 0 {
		return tf.lut[0]
	}
	if x >= 1 {
		return tf.lut[tfLUTSize-1]
	}
	return tf.lut[int(x*float32(tfLUTSize-1)+0.5)]
}

// DefaultNegHipTF returns the preset used in the experiments: neutral
// potential (around 0.5) is transparent, negative potential renders as
// semi-transparent cool blues deepening to opaque, positive as warm
// oranges/reds. This mirrors the usual potential-field presets and gives
// the mix of translucency and opacity visible in the paper's Figure 6.
func DefaultNegHipTF() *TransferFunction {
	tf, err := NewTransferFunction([]TFPoint{
		{Value: 0.00, R: 0.1, G: 0.2, B: 0.9, A: 0.95},
		{Value: 0.20, R: 0.2, G: 0.4, B: 0.9, A: 0.55},
		{Value: 0.40, R: 0.5, G: 0.7, B: 0.9, A: 0.12},
		{Value: 0.50, R: 0.9, G: 0.9, B: 0.9, A: 0.0},
		{Value: 0.62, R: 0.95, G: 0.8, B: 0.4, A: 0.18},
		{Value: 0.80, R: 0.95, G: 0.5, B: 0.15, A: 0.65},
		{Value: 1.00, R: 0.9, G: 0.15, B: 0.1, A: 0.98},
	})
	if err != nil {
		panic("volume: invalid built-in transfer function: " + err.Error())
	}
	return tf
}
