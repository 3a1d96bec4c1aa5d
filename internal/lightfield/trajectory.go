package lightfield

import (
	"math"
	"sync"

	"lonviz/internal/geom"
)

// TrajectoryPredictor follows the cursor on the view sphere and names the
// one view set a move should prefetch: the set the cursor enters if it
// takes one more step of its last motion, with the paper's quadrant
// (Figure 4) as the fallback — BigDataViewer's "what the next frame needs,
// most important first", applied to the paper's view-sphere browsing. One
// step and one set because one think window carries one view-set transfer
// on a far link. Velocity is the per-sample angle delta — no wall clock is
// consulted, so a given cursor path always yields the same prediction
// sequence (determinism the tests pin down).
type TrajectoryPredictor struct {
	p Params

	mu           sync.Mutex
	prev         geom.Spherical
	havePrev     bool
	dTheta, dPhi float64
}

// NewTrajectoryPredictor builds a predictor over the database geometry p.
func NewTrajectoryPredictor(p Params) *TrajectoryPredictor {
	return &TrajectoryPredictor{p: p}
}

// advance records one cursor sample and returns the view set the cursor
// enters if it takes one more step of its last motion. ok is false while
// the cursor has no velocity (first sample, or two identical samples) and
// when that step stays inside the cursor's current set.
func (t *TrajectoryPredictor) advance(sp geom.Spherical) (id ViewSetID, ok bool) {
	t.mu.Lock()
	moving := t.havePrev
	if moving {
		t.dTheta = sp.Theta - t.prev.Theta
		t.dPhi = wrapDeltaPhi(sp.Phi - t.prev.Phi)
		moving = t.dTheta != 0 || t.dPhi != 0
	}
	t.prev, t.havePrev = sp, true
	dTheta, dPhi := t.dTheta, t.dPhi
	t.mu.Unlock()
	if !moving {
		return ViewSetID{}, false
	}
	ci, cj := t.p.NearestCamera(sp)
	rt, rp := reflectSphere(sp.Theta+dTheta, sp.Phi+dPhi)
	i, j := t.p.NearestCamera(geom.Spherical{Theta: rt, Phi: rp})
	id = t.p.ViewSetOf(i, j)
	return id, id != t.p.ViewSetOf(ci, cj) && t.p.ValidID(id)
}

// PathPrefetch records one cursor sample and returns the one view set the
// path policy prefetches for it: the set advance names, or — when there is
// none or held has it — the first of QuadrantPrefetch(sp)'s targets that
// held does not have. ok is false when held has every candidate.
func (t *TrajectoryPredictor) PathPrefetch(sp geom.Spherical, held func(ViewSetID) bool) (ViewSetID, bool) {
	if id, ok := t.advance(sp); ok && !held(id) {
		return id, true
	}
	for _, id := range t.p.QuadrantPrefetch(sp) {
		if !held(id) {
			return id, true
		}
	}
	return ViewSetID{}, false
}

// wrapDeltaPhi maps an azimuth delta into (-π, π] so a cursor crossing
// the φ=0 seam reads as a small step, not a near-full revolution.
func wrapDeltaPhi(d float64) float64 {
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// reflectSphere folds an extrapolated (θ, φ) back onto the sphere: a path
// crossing a pole continues down the far side (θ reflects, φ gains π),
// and φ wraps into [0, 2π).
func reflectSphere(theta, phi float64) (float64, float64) {
	for theta < 0 || theta > math.Pi {
		if theta < 0 {
			theta = -theta
		} else {
			theta = 2*math.Pi - theta
		}
		phi += math.Pi
	}
	phi = math.Mod(phi, 2*math.Pi)
	if phi < 0 {
		phi += 2 * math.Pi
	}
	return theta, phi
}
