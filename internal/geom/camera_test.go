package geom

import (
	"math"
	"testing"
)

func TestLookAtBasis(t *testing.T) {
	c, err := LookAt(V(0, -5, 0), V(0, 0, 0), V(0, 0, 1), Radians(45), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(c.Forward(), V(0, 1, 0), 1e-12) {
		t.Errorf("forward = %v", c.Forward())
	}
	// Orthonormal basis.
	if math.Abs(c.Forward().Dot(c.Right())) > 1e-12 ||
		math.Abs(c.Forward().Dot(c.Up())) > 1e-12 ||
		math.Abs(c.Right().Dot(c.Up())) > 1e-12 {
		t.Error("camera basis not orthogonal")
	}
	for _, v := range []Vec3{c.Forward(), c.Right(), c.Up()} {
		if math.Abs(v.Len()-1) > 1e-12 {
			t.Errorf("basis vector not unit: %v", v)
		}
	}
}

func TestLookAtDegenerate(t *testing.T) {
	if _, err := LookAt(V(1, 2, 3), V(1, 2, 3), V(0, 0, 1), 1, 8); err == nil {
		t.Error("expected error for eye == target")
	}
	if _, err := LookAt(V(0, 0, 0), V(0, 0, 1), V(0, 0, 1), 1, 0); err == nil {
		t.Error("expected error for non-positive resolution")
	}
	// Up parallel to view direction must be recovered, not fail.
	c, err := LookAt(V(0, 0, -5), V(0, 0, 0), V(0, 0, 1), 1, 8)
	if err != nil {
		t.Fatalf("parallel up not recovered: %v", err)
	}
	if math.Abs(c.Right().Dot(c.Forward())) > 1e-12 {
		t.Error("recovered basis not orthogonal")
	}
}

func TestPrimaryRayCenterPixel(t *testing.T) {
	// Odd resolution: the middle pixel's center ray is exactly forward.
	c, err := LookAt(V(0, -3, 0), V(0, 10, 0), V(0, 0, 1), Radians(60), 9)
	if err != nil {
		t.Fatal(err)
	}
	r := c.PrimaryRay(4, 4)
	if !approxEq(r.Dir, c.Forward(), 1e-12) {
		t.Errorf("center ray dir = %v, want %v", r.Dir, c.Forward())
	}
	if r.Origin != c.Eye {
		t.Errorf("ray origin = %v", r.Origin)
	}
}

func TestPrimaryRayCorners(t *testing.T) {
	c, err := LookAt(V(0, 0, 0), V(0, 0, -1), V(0, 1, 0), Radians(90), 100)
	if err != nil {
		t.Fatal(err)
	}
	topLeft := c.PrimaryRay(0, 0)
	bottomRight := c.PrimaryRay(99, 99)
	// Top-left must point up-left relative to forward; bottom-right opposite.
	if topLeft.Dir.Dot(c.Up()) <= 0 {
		t.Error("top-left ray does not point up")
	}
	if bottomRight.Dir.Dot(c.Up()) >= 0 {
		t.Error("bottom-right ray does not point down")
	}
	if topLeft.Dir.Dot(c.Right()) >= 0 {
		t.Error("top-left ray does not point left")
	}
}

func TestOrbitCameraLooksAtCenter(t *testing.T) {
	center := V(1, 2, 3)
	for _, sp := range []Spherical{
		{Theta: 0.01, Phi: 0},
		{Theta: math.Pi / 2, Phi: 1},
		{Theta: math.Pi - 0.01, Phi: 4},
		{Theta: 0, Phi: 0}, // exactly at the pole
	} {
		c, err := OrbitCamera(center, 5, sp, Radians(30), 16)
		if err != nil {
			t.Fatalf("OrbitCamera(%+v): %v", sp, err)
		}
		if math.Abs(c.Eye.Dist(center)-5) > 1e-9 {
			t.Errorf("eye not on orbit sphere: %v", c.Eye)
		}
		want := center.Sub(c.Eye).Norm()
		if !approxEq(c.Forward(), want, 1e-9) {
			t.Errorf("forward = %v, want %v", c.Forward(), want)
		}
	}
}

func TestProjectBehindCamera(t *testing.T) {
	c, err := LookAt(V(0, 0, 0), V(0, 1, 0), V(0, 0, 1), Radians(45), 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Project(V(0, -5, 0)); ok {
		t.Error("point behind the camera projected")
	}
	if _, _, ok := c.Project(c.Eye); ok {
		t.Error("the eye itself projected")
	}
}

func TestPrimaryRayRawMatchesPrimaryRay(t *testing.T) {
	c, err := LookAt(V(1, -3, 2), V(0, 0, 0), V(0, 0, 1), Radians(50), 33)
	if err != nil {
		t.Fatal(err)
	}
	for _, px := range []int{0, 16, 32} {
		for _, py := range []int{0, 16, 32} {
			a := c.PrimaryRay(px, py)
			b := c.PrimaryRayRaw(px, py)
			if a.Origin != b.Origin {
				t.Fatal("origins differ")
			}
			if !approxEq(a.Dir, b.Dir.Norm(), 1e-12) {
				t.Fatalf("directions differ at (%d,%d)", px, py)
			}
		}
	}
}
