// Package geom provides the small computational-geometry kernel used by the
// light field system: 3-vectors, rays, spherical coordinates, pinhole
// cameras, and ray/sphere and ray/box intersection.
//
// Conventions: right-handed coordinates, angles in radians unless a name
// says otherwise, and spherical coordinates (theta, phi) with theta in
// [0, pi] measured from +Z (colatitude) and phi in [0, 2*pi) measured from
// +X toward +Y (longitude).
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector of float64.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a * s.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product of a and b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a x b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean length of a.
func (a Vec3) Len() float64 { return math.Sqrt(a.Dot(a)) }

// Len2 returns the squared length of a.
func (a Vec3) Len2() float64 { return a.Dot(a) }

// Norm returns a scaled to unit length. The zero vector is returned
// unchanged.
func (a Vec3) Norm() Vec3 {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Dist returns the Euclidean distance between a and b.
func (a Vec3) Dist(b Vec3) float64 { return a.Sub(b).Len() }

// Min returns the component-wise minimum of a and b.
func (a Vec3) Min(b Vec3) Vec3 {
	return Vec3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)}
}

// Max returns the component-wise maximum of a and b.
func (a Vec3) Max(b Vec3) Vec3 {
	return Vec3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)}
}

// String implements fmt.Stringer.
func (a Vec3) String() string { return fmt.Sprintf("(%g, %g, %g)", a.X, a.Y, a.Z) }

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Ray is a half-line with unit-length direction.
type Ray struct {
	Origin Vec3
	Dir    Vec3
}

// NewRay constructs a Ray, normalizing dir.
func NewRay(origin, dir Vec3) Ray { return Ray{Origin: origin, Dir: dir.Norm()} }

// At returns the point Origin + t*Dir.
func (r Ray) At(t float64) Vec3 { return r.Origin.Add(r.Dir.Scale(t)) }
