package volume

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTransferFunctionValidation(t *testing.T) {
	if _, err := NewTransferFunction(nil); err == nil {
		t.Error("expected error for no points")
	}
	if _, err := NewTransferFunction([]TFPoint{{Value: 0.5}}); err == nil {
		t.Error("expected error for one point")
	}
	if _, err := NewTransferFunction([]TFPoint{{Value: 0.5}, {Value: 0.5}}); err == nil {
		t.Error("expected error for coincident points")
	}
}

func TestTransferFunctionEndpointsAndClamp(t *testing.T) {
	tf, err := NewTransferFunction([]TFPoint{
		{Value: 0.2, R: 1, A: 0.1},
		{Value: 0.8, B: 1, A: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo := tf.Lookup(0)
	if lo.R != 1 || lo.A != 0.1 {
		t.Errorf("below-range lookup = %+v", lo)
	}
	hi := tf.Lookup(1)
	if hi.B != 1 || hi.A != 0.9 {
		t.Errorf("above-range lookup = %+v", hi)
	}
	mid := tf.Lookup(0.5)
	if math.Abs(float64(mid.A-0.5)) > 0.01 {
		t.Errorf("midpoint alpha = %v, want ~0.5", mid.A)
	}
	if math.Abs(float64(mid.R-0.5)) > 0.01 || math.Abs(float64(mid.B-0.5)) > 0.01 {
		t.Errorf("midpoint color = %+v", mid)
	}
}

func TestTransferFunctionSortsPoints(t *testing.T) {
	// Same function given shuffled control points.
	pts := []TFPoint{
		{Value: 0.9, A: 0.9},
		{Value: 0.1, A: 0.1},
		{Value: 0.5, A: 0.7},
	}
	tf, err := NewTransferFunction(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := tf.Lookup(0.5); math.Abs(float64(got.A-0.7)) > 0.01 {
		t.Errorf("Lookup(0.5).A = %v, want 0.7", got.A)
	}
}

func TestTransferLookupInRangeQuick(t *testing.T) {
	tf := DefaultNegHipTF()
	f := func(x float32) bool {
		c := tf.Lookup(x)
		ok := func(v float32) bool { return v >= 0 && v <= 1 && !math.IsNaN(float64(v)) }
		return ok(c.R) && ok(c.G) && ok(c.B) && ok(c.A)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultNegHipTFShape(t *testing.T) {
	tf := DefaultNegHipTF()
	if a := tf.Lookup(0.5).A; a > 0.02 {
		t.Errorf("neutral potential should be transparent, alpha = %v", a)
	}
	if a := tf.Lookup(0.0).A; a < 0.5 {
		t.Errorf("strong negative potential should be nearly opaque, alpha = %v", a)
	}
	if a := tf.Lookup(1.0).A; a < 0.5 {
		t.Errorf("strong positive potential should be nearly opaque, alpha = %v", a)
	}
	// Negative side is blue-ish, positive side red-ish.
	if c := tf.Lookup(0.05); c.B < c.R {
		t.Errorf("negative potential not blue: %+v", c)
	}
	if c := tf.Lookup(0.95); c.R < c.B {
		t.Errorf("positive potential not red: %+v", c)
	}
}
