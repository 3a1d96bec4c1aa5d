package geom

import "math"

// Sphere is a sphere centered at Center with radius Radius.
type Sphere struct {
	Center Vec3
	Radius float64
}

// IntersectRay returns the ray parameters at which r enters and leaves the
// sphere. ok is false when the ray misses. tNear may be negative when the
// ray origin is inside the sphere or the sphere is behind the origin.
func (s Sphere) IntersectRay(r Ray) (tNear, tFar float64, ok bool) {
	oc := r.Origin.Sub(s.Center)
	// Dir is unit length, so a == 1.
	b := 2 * oc.Dot(r.Dir)
	c := oc.Len2() - s.Radius*s.Radius
	disc := b*b - 4*c
	if disc < 0 {
		return 0, 0, false
	}
	sq := math.Sqrt(disc)
	return (-b - sq) / 2, (-b + sq) / 2, true
}

// Contains reports whether p lies inside or on the sphere.
func (s Sphere) Contains(p Vec3) bool {
	return p.Sub(s.Center).Len2() <= s.Radius*s.Radius+1e-12
}

// Spherical holds the angular components of spherical coordinates:
// Theta (colatitude from +Z) in [0, pi], Phi (longitude from +X) in
// [0, 2*pi).
type Spherical struct {
	Theta, Phi float64
}

// ToSpherical converts a direction (need not be unit) to angular spherical
// coordinates. The zero vector maps to (0, 0).
func ToSpherical(d Vec3) Spherical {
	l := d.Len()
	if l == 0 {
		return Spherical{}
	}
	theta := math.Acos(Clamp(d.Z/l, -1, 1))
	phi := math.Atan2(d.Y, d.X)
	if phi < 0 {
		phi += 2 * math.Pi
	}
	return Spherical{Theta: theta, Phi: phi}
}

// Dir converts spherical angles back to a unit direction vector.
func (sp Spherical) Dir() Vec3 {
	st, ct := math.Sincos(sp.Theta)
	sf, cf := math.Sincos(sp.Phi)
	return Vec3{st * cf, st * sf, ct}
}

// PointOn returns the point at angles sp on sphere s.
func (s Sphere) PointOn(sp Spherical) Vec3 {
	return s.Center.Add(sp.Dir().Scale(s.Radius))
}

// SphericalOf returns the angular coordinates of p as seen from the sphere
// center. p need not lie on the sphere surface.
func (s Sphere) SphericalOf(p Vec3) Spherical {
	return ToSpherical(p.Sub(s.Center))
}

// AngularDist returns the great-circle angle in radians between two
// spherical directions.
func AngularDist(a, b Spherical) float64 {
	return math.Acos(Clamp(a.Dir().Dot(b.Dir()), -1, 1))
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Box is an axis-aligned box.
type Box struct {
	Min, Max Vec3
}

// IntersectRay returns the entry and exit parameters of r against the box
// using the slab method. ok is false when the ray misses the box entirely.
func (b Box) IntersectRay(r Ray) (tNear, tFar float64, ok bool) {
	tNear = math.Inf(-1)
	tFar = math.Inf(1)
	for i := 0; i < 3; i++ {
		var o, d, lo, hi float64
		switch i {
		case 0:
			o, d, lo, hi = r.Origin.X, r.Dir.X, b.Min.X, b.Max.X
		case 1:
			o, d, lo, hi = r.Origin.Y, r.Dir.Y, b.Min.Y, b.Max.Y
		default:
			o, d, lo, hi = r.Origin.Z, r.Dir.Z, b.Min.Z, b.Max.Z
		}
		if d == 0 {
			if o < lo || o > hi {
				return 0, 0, false
			}
			continue
		}
		t0 := (lo - o) / d
		t1 := (hi - o) / d
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tNear {
			tNear = t0
		}
		if t1 < tFar {
			tFar = t1
		}
		if tNear > tFar {
			return 0, 0, false
		}
	}
	return tNear, tFar, true
}

// Center returns the box centroid.
func (b Box) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Diagonal returns Max - Min.
func (b Box) Diagonal() Vec3 { return b.Max.Sub(b.Min) }

// BoundingSphere returns the smallest sphere centered at the box center that
// contains the box.
func (b Box) BoundingSphere() Sphere {
	return Sphere{Center: b.Center(), Radius: b.Diagonal().Len() / 2}
}

// IntersectRayGeneral is IntersectRay for rays whose direction need not be
// unit length; the returned parameters are in units of |Dir|.
func (s Sphere) IntersectRayGeneral(r Ray) (tNear, tFar float64, ok bool) {
	oc := r.Origin.Sub(s.Center)
	a := r.Dir.Dot(r.Dir)
	if a == 0 {
		return 0, 0, false
	}
	b := 2 * oc.Dot(r.Dir)
	c := oc.Len2() - s.Radius*s.Radius
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, 0, false
	}
	sq := math.Sqrt(disc)
	return (-b - sq) / (2 * a), (-b + sq) / (2 * a), true
}
