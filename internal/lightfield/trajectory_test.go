package lightfield

import (
	"math"
	"slices"
	"testing"

	"lonviz/internal/geom"
)

// trajParams is a small lattice (18x36 cameras, 6x12 view sets of 30°)
// used by the predictor tests.
func trajParams(t *testing.T) Params {
	t.Helper()
	p := ScaledParams(10, 3, 16)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// setAt is the view set holding direction sp.
func setAt(p Params, sp geom.Spherical) ViewSetID {
	return p.ViewSetOf(p.NearestCamera(sp))
}

func TestTrajectoryZeroVelocity(t *testing.T) {
	p := trajParams(t)
	tp := NewTrajectoryPredictor(p)
	sp := geom.Spherical{Theta: math.Pi / 2, Phi: 1.0}
	if id, ok := tp.advance(sp); ok {
		t.Fatalf("first sample (no velocity yet) predicted %v, want none", id)
	}
	if id, ok := tp.advance(sp); ok {
		t.Fatalf("still cursor predicted %v, want none", id)
	}
	// Movement resumes prediction; stopping again silences it.
	moved := geom.Spherical{Theta: math.Pi / 2, Phi: 1.4}
	if _, ok := tp.advance(moved); !ok {
		t.Fatal("moving cursor predicted nothing")
	}
	if id, ok := tp.advance(moved); ok {
		t.Fatalf("re-stopped cursor predicted %v, want none", id)
	}
}

func TestTrajectoryFollowsMotion(t *testing.T) {
	p := trajParams(t)
	tp := NewTrajectoryPredictor(p)
	// Eastward along the equator by about one set: the prediction must sit
	// east of the cursor's current view set, not behind it.
	tp.advance(geom.Spherical{Theta: math.Pi / 2, Phi: 0.3})
	sp := geom.Spherical{Theta: math.Pi / 2, Phi: 0.8}
	id, ok := tp.advance(sp)
	if !ok {
		t.Fatal("eastward motion predicted nothing")
	}
	cur := setAt(p, sp)
	if !p.ValidID(id) {
		t.Fatalf("prediction %v outside database", id)
	}
	if id == cur {
		t.Fatalf("prediction %v is the current set", id)
	}
	if id.C <= cur.C {
		t.Fatalf("eastward motion predicted westward/current set %v (current %v)", id, cur)
	}
	// One step of about one set's width enters the next set east, not one
	// further along.
	if want := (ViewSetID{R: cur.R, C: cur.C + 1}); id != want {
		t.Fatalf("one step east predicted %v, want %v (current %v)", id, want, cur)
	}
	// A step that stays inside the current set names no set.
	tp.advance(geom.Spherical{Theta: math.Pi / 2, Phi: 0.85})
	if id, ok := tp.advance(geom.Spherical{Theta: math.Pi / 2, Phi: 0.9}); ok {
		t.Fatalf("a step inside the current set predicted %v, want none", id)
	}
}

func TestTrajectoryDirectionReversal(t *testing.T) {
	p := trajParams(t)
	tp := NewTrajectoryPredictor(p)
	// East first...
	tp.advance(geom.Spherical{Theta: math.Pi / 2, Phi: 1.0})
	east, okEast := tp.advance(geom.Spherical{Theta: math.Pi / 2, Phi: 1.5})
	// ...then reverse west. The prediction must flip sides.
	sp := geom.Spherical{Theta: math.Pi / 2, Phi: 1.0}
	west, okWest := tp.advance(sp)
	if !okEast || !okWest {
		t.Fatalf("expected predictions both ways, got east=%v,%v west=%v,%v", east, okEast, west, okWest)
	}
	cur := setAt(p, sp)
	if west.C >= cur.C && west.C < cur.C+p.SetCols()/2 {
		t.Fatalf("westward motion predicted eastward set %v (current %v)", west, cur)
	}
	if east == west {
		t.Fatalf("prediction %v survived a direction reversal", east)
	}
}

func TestTrajectoryPoleWraparound(t *testing.T) {
	p := trajParams(t)
	tp := NewTrajectoryPredictor(p)
	// Straight over the north pole: the extrapolated step crosses θ=0 and
	// must continue down the far side (φ shifted by π), never producing an
	// out-of-range view set.
	tp.advance(geom.Spherical{Theta: 0.35, Phi: 0.5})
	sp := geom.Spherical{Theta: 0.15, Phi: 0.5}
	id, ok := tp.advance(sp)
	if !ok {
		t.Fatal("pole-crossing motion predicted nothing")
	}
	if !p.ValidID(id) {
		t.Fatalf("pole crossing predicted out-of-range set %v", id)
	}
	cur := setAt(p, sp)
	if id.C != (cur.C+p.SetCols()/2)%p.SetCols() {
		t.Fatalf("pole crossing did not reach the far side of the sphere: %v (current %v)", id, cur)
	}
}

func TestTrajectoryDeterminism(t *testing.T) {
	p := trajParams(t)
	path := []geom.Spherical{
		{Theta: 1.2, Phi: 0.1},
		{Theta: 1.25, Phi: 0.5},
		{Theta: 1.3, Phi: 0.9},
		{Theta: 1.2, Phi: 1.4},
		{Theta: 0.9, Phi: 1.4},
		{Theta: 0.4, Phi: 2.0},
	}
	a, b := NewTrajectoryPredictor(p), NewTrajectoryPredictor(p)
	predicted := 0
	for i, sp := range path {
		ida, oka := a.advance(sp)
		idb, okb := b.advance(sp)
		if ida != idb || oka != okb {
			t.Fatalf("step %d: same path diverged: %v,%v vs %v,%v", i, ida, oka, idb, okb)
		}
		if oka {
			predicted++
		}
	}
	if predicted == 0 {
		t.Fatal("the path predicted nothing at any step")
	}
}

// TestPathPrefetchFallsThroughToQuadrant: the path policy names the set
// one more step enters; when that is held, or the cursor has no motion
// yet, the quadrant's first target not held; when all are held, nothing.
func TestPathPrefetchFallsThroughToQuadrant(t *testing.T) {
	p := trajParams(t)
	none := func(ViewSetID) bool { return false }
	from := geom.Spherical{Theta: math.Pi / 2, Phi: 0.3}
	sp := geom.Spherical{Theta: math.Pi / 2, Phi: 0.8}
	quad := p.QuadrantPrefetch(sp)
	if len(quad) != 3 {
		t.Fatalf("quadrant targets %v, want 3", quad)
	}

	first := NewTrajectoryPredictor(p)
	if id, ok := first.PathPrefetch(sp, none); !ok || id != quad[0] {
		t.Errorf("first move: %v,%v, want the quadrant's first target %v", id, ok, quad[0])
	}

	moving := func() *TrajectoryPredictor {
		tp := NewTrajectoryPredictor(p)
		tp.PathPrefetch(from, none)
		return tp
	}
	step, ok := moving().advance(sp)
	if !ok {
		t.Fatal("the move predicted no step")
	}
	if id, ok := moving().PathPrefetch(sp, none); !ok || id != step {
		t.Errorf("nothing held: %v,%v, want the step's set %v", id, ok, step)
	}
	// The step's set is held: the quadrant's first target not held, and
	// with that one held too, the next.
	var heldSets []ViewSetID
	held := func(id ViewSetID) bool { return id == step || slices.Contains(heldSets, id) }
	for range 2 {
		i := slices.IndexFunc(quad, func(id ViewSetID) bool { return !held(id) })
		got, ok := moving().PathPrefetch(sp, held)
		if !ok || got != quad[i] {
			t.Errorf("%v and %v held: %v,%v, want %v", step, heldSets, got, ok, quad[i])
		}
		heldSets = append(heldSets, quad[i])
	}
	all := func(ViewSetID) bool { return true }
	if id, ok := moving().PathPrefetch(sp, all); ok {
		t.Errorf("everything held: %v, want none", id)
	}
}
