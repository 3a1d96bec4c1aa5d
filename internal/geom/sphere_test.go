package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSphereIntersectHit(t *testing.T) {
	s := Sphere{Center: V(0, 0, 0), Radius: 2}
	r := NewRay(V(-10, 0, 0), V(1, 0, 0))
	tn, tf, ok := s.IntersectRay(r)
	if !ok {
		t.Fatal("expected hit")
	}
	if math.Abs(tn-8) > 1e-9 || math.Abs(tf-12) > 1e-9 {
		t.Errorf("tn=%v tf=%v, want 8, 12", tn, tf)
	}
}

func TestSphereIntersectMiss(t *testing.T) {
	s := Sphere{Center: V(0, 0, 0), Radius: 1}
	r := NewRay(V(-10, 5, 0), V(1, 0, 0))
	if _, _, ok := s.IntersectRay(r); ok {
		t.Error("expected miss")
	}
}

func TestSphereIntersectFromInside(t *testing.T) {
	s := Sphere{Center: V(0, 0, 0), Radius: 3}
	r := NewRay(V(0, 0, 0), V(0, 1, 0))
	tn, tf, ok := s.IntersectRay(r)
	if !ok {
		t.Fatal("expected hit from inside")
	}
	if tn >= 0 || math.Abs(tf-3) > 1e-9 {
		t.Errorf("tn=%v tf=%v, want tn<0, tf=3", tn, tf)
	}
}

func TestSphereContains(t *testing.T) {
	s := Sphere{Center: V(1, 1, 1), Radius: 2}
	if !s.Contains(V(1, 1, 1)) || !s.Contains(V(3, 1, 1)) {
		t.Error("Contains false negative")
	}
	if s.Contains(V(4, 1, 1)) {
		t.Error("Contains false positive")
	}
}

func TestSphericalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		d := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Norm()
		if d.Len() == 0 {
			continue
		}
		back := ToSpherical(d).Dir()
		if !approxEq(back, d, 1e-9) {
			t.Fatalf("round trip failed: %v -> %v", d, back)
		}
	}
}

func TestSphericalRanges(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := V(x, y, z)
		if !isFinite(v) || v.Len() < 1e-9 || v.Len() > 1e9 {
			return true
		}
		sp := ToSpherical(v)
		return sp.Theta >= 0 && sp.Theta <= math.Pi && sp.Phi >= 0 && sp.Phi < 2*math.Pi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSphericalPoles(t *testing.T) {
	up := ToSpherical(V(0, 0, 1))
	if up.Theta != 0 {
		t.Errorf("+Z theta = %v", up.Theta)
	}
	down := ToSpherical(V(0, 0, -1))
	if math.Abs(down.Theta-math.Pi) > 1e-12 {
		t.Errorf("-Z theta = %v", down.Theta)
	}
	if ToSpherical(Vec3{}) != (Spherical{}) {
		t.Error("zero vector should map to (0,0)")
	}
}

func TestPointOnAndSphericalOf(t *testing.T) {
	s := Sphere{Center: V(5, -2, 1), Radius: 4}
	sp := Spherical{Theta: 1.1, Phi: 2.2}
	p := s.PointOn(sp)
	if math.Abs(p.Sub(s.Center).Len()-4) > 1e-9 {
		t.Errorf("PointOn not on sphere: %v", p)
	}
	got := s.SphericalOf(p)
	if math.Abs(got.Theta-sp.Theta) > 1e-9 || math.Abs(got.Phi-sp.Phi) > 1e-9 {
		t.Errorf("SphericalOf = %+v, want %+v", got, sp)
	}
}

func TestAngularDist(t *testing.T) {
	a := Spherical{Theta: math.Pi / 2, Phi: 0}
	b := Spherical{Theta: math.Pi / 2, Phi: math.Pi / 2}
	if d := AngularDist(a, b); math.Abs(d-math.Pi/2) > 1e-12 {
		t.Errorf("AngularDist = %v, want pi/2", d)
	}
	if d := AngularDist(a, a); d > 1e-9 {
		t.Errorf("self distance = %v", d)
	}
}

func TestDegreesRadians(t *testing.T) {
	if Radians(180) != math.Pi {
		t.Error("Radians(180) != pi")
	}
	if math.Abs(Radians(90)-math.Pi/2) > 1e-15 {
		t.Error("Radians(90) != pi/2")
	}
}

func TestBoxIntersect(t *testing.T) {
	b := Box{Min: V(-1, -1, -1), Max: V(1, 1, 1)}
	r := NewRay(V(-5, 0, 0), V(1, 0, 0))
	tn, tf, ok := b.IntersectRay(r)
	if !ok || math.Abs(tn-4) > 1e-9 || math.Abs(tf-6) > 1e-9 {
		t.Errorf("box hit tn=%v tf=%v ok=%v", tn, tf, ok)
	}
	if _, _, ok := b.IntersectRay(NewRay(V(-5, 2, 0), V(1, 0, 0))); ok {
		t.Error("expected box miss")
	}
	// Axis-parallel ray inside slab bounds.
	if _, _, ok := b.IntersectRay(NewRay(V(0, 0, -9), V(0, 0, 1))); !ok {
		t.Error("expected axis-aligned hit")
	}
	// Zero direction component outside slab.
	if _, _, ok := b.IntersectRay(NewRay(V(0, 5, -9), V(0, 0, 1))); ok {
		t.Error("expected miss for parallel ray outside slab")
	}
}

func TestBoundingSphereContainsCorners(t *testing.T) {
	b := Box{Min: V(-2, 0, 1), Max: V(4, 3, 5)}
	s := b.BoundingSphere()
	for _, x := range []float64{b.Min.X, b.Max.X} {
		for _, y := range []float64{b.Min.Y, b.Max.Y} {
			for _, z := range []float64{b.Min.Z, b.Max.Z} {
				if !s.Contains(V(x, y, z)) {
					t.Errorf("corner (%v,%v,%v) outside bounding sphere", x, y, z)
				}
			}
		}
	}
}

// Property: any ray that intersects an inner sphere also intersects every
// concentric outer sphere. This is the geometric fact that makes the
// two-sphere light field parameterization total (paper section 3.2).
func TestInnerHitImpliesOuterHit(t *testing.T) {
	inner := Sphere{Radius: 1}
	outer := Sphere{Radius: 2.5}
	rng := rand.New(rand.NewSource(42))
	hits := 0
	for i := 0; i < 5000; i++ {
		o := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Norm().Scale(3 + rng.Float64()*10)
		d := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if d.Len() == 0 {
			continue
		}
		r := NewRay(o, d)
		if _, _, ok := inner.IntersectRay(r); ok {
			hits++
			if _, _, ok2 := outer.IntersectRay(r); !ok2 {
				t.Fatalf("ray %+v hits inner sphere but misses outer", r)
			}
		}
	}
	if hits == 0 {
		t.Fatal("test generated no inner-sphere hits; broken sampler")
	}
}

func TestIntersectRayGeneralMatchesUnit(t *testing.T) {
	s := Sphere{Center: V(1, 2, 3), Radius: 2}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		o := V(rng.NormFloat64()*5, rng.NormFloat64()*5, rng.NormFloat64()*5)
		d := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if d.Len() < 1e-9 {
			continue
		}
		scale := 0.1 + rng.Float64()*10
		raw := Ray{Origin: o, Dir: d.Scale(scale)}
		unit := NewRay(o, d)
		tn1, tf1, ok1 := s.IntersectRay(unit)
		tn2, tf2, ok2 := s.IntersectRayGeneral(raw)
		if ok1 != ok2 {
			t.Fatalf("hit disagreement at %+v", raw)
		}
		if !ok1 {
			continue
		}
		// Points must coincide even though parameters differ.
		if !approxEq(unit.At(tn1), raw.At(tn2), 1e-6) || !approxEq(unit.At(tf1), raw.At(tf2), 1e-6) {
			t.Fatalf("intersection points differ")
		}
	}
	// Degenerate zero direction.
	if _, _, ok := s.IntersectRayGeneral(Ray{Origin: V(0, 0, 0), Dir: Vec3{}}); ok {
		t.Error("zero-direction ray hit")
	}
}
