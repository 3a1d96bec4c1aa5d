package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	a := V(1, 2, 3)
	b := V(-2, 0.5, 4)
	c := a.Cross(b)
	if math.Abs(c.Dot(a)) > 1e-12 || math.Abs(c.Dot(b)) > 1e-12 {
		t.Errorf("cross product not orthogonal: %v", c)
	}
	// Right-handedness on basis vectors.
	if got := V(1, 0, 0).Cross(V(0, 1, 0)); !approxEq(got, V(0, 0, 1), 1e-15) {
		t.Errorf("x cross y = %v, want z", got)
	}
}

func TestNorm(t *testing.T) {
	v := V(3, 4, 0).Norm()
	if math.Abs(v.Len()-1) > 1e-12 {
		t.Errorf("Norm length = %v", v.Len())
	}
	if !approxEq(v, V(0.6, 0.8, 0), 1e-12) {
		t.Errorf("Norm = %v", v)
	}
	zero := Vec3{}
	if zero.Norm() != zero {
		t.Errorf("Norm of zero vector changed: %v", zero.Norm())
	}
}

func TestMinMaxDistFinite(t *testing.T) {
	a, b := V(1, 5, -2), V(3, -1, 0)
	if got := a.Min(b); got != V(1, -1, -2) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(3, 5, 0) {
		t.Errorf("Max = %v", got)
	}
	if got := V(0, 0, 0).Dist(V(3, 4, 0)); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if !isFinite(a) {
		t.Error("finite vector reported non-finite")
	}
	if isFinite(V(math.NaN(), 0, 0)) || isFinite(V(0, math.Inf(1), 0)) {
		t.Error("non-finite vector reported finite")
	}
}

func TestClamp(t *testing.T) {
	for _, tc := range []struct{ v, lo, hi, want float64 }{
		{-1, 0, 1, 0}, {2, 0, 1, 1}, {0.5, 0, 1, 0.5}, {0, 0, 0, 0},
	} {
		if got := Clamp(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestRayAt(t *testing.T) {
	r := NewRay(V(1, 0, 0), V(0, 2, 0)) // direction normalized
	if math.Abs(r.Dir.Len()-1) > 1e-12 {
		t.Fatalf("ray direction not normalized: %v", r.Dir)
	}
	if got := r.At(3); !approxEq(got, V(1, 3, 0), 1e-12) {
		t.Errorf("At(3) = %v", got)
	}
}

// Property: normalization is idempotent and produces unit length for any
// non-tiny vector.
func TestNormPropertyQuick(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := V(x, y, z)
		if !isFinite(v) || v.Len() < 1e-9 || v.Len() > 1e18 {
			return true // skip degenerate input
		}
		n := v.Norm()
		return math.Abs(n.Len()-1) < 1e-9 && approxEq(n.Norm(), n, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: dot product is symmetric and bilinear in scaling.
func TestDotPropertyQuick(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, s float64) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		if !isFinite(a) || !isFinite(b) || math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		if math.Abs(s) > 1e6 || a.Len() > 1e6 || b.Len() > 1e6 {
			return true // avoid float overflow noise
		}
		sym := math.Abs(a.Dot(b)-b.Dot(a)) <= 1e-6
		lin := math.Abs(a.Scale(s).Dot(b)-s*a.Dot(b)) <= 1e-4*(1+math.Abs(s*a.Dot(b)))
		return sym && lin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// approxEq reports whether a and b agree component-wise within eps.
func approxEq(a, b Vec3, eps float64) bool {
	return math.Abs(a.X-b.X) <= eps && math.Abs(a.Y-b.Y) <= eps && math.Abs(a.Z-b.Z) <= eps
}

// isFinite reports whether all components of a are finite numbers.
func isFinite(a Vec3) bool {
	return !math.IsNaN(a.X) && !math.IsInf(a.X, 0) &&
		!math.IsNaN(a.Y) && !math.IsInf(a.Y, 0) &&
		!math.IsNaN(a.Z) && !math.IsInf(a.Z, 0)
}
