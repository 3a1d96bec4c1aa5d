package lightfield

import (
	"math"
	"testing"
	"testing/quick"

	"lonviz/internal/geom"
)

func TestQuadrantPrefetchDirections(t *testing.T) {
	p := ScaledParams(10, 3, 8) // sets: 6 rows x 12 cols
	// Build a direction in the top-left quadrant of interior set (3,5):
	// lattice rows 9..11, cols 15..17. Top-left quadrant means fractional
	// position < 0.5 in both -> row 9, col 15 area.
	sp := p.CameraAngles(9, 15)
	got := p.QuadrantPrefetch(sp)
	want := map[ViewSetID]bool{
		{R: 2, C: 5}: true, // above
		{R: 3, C: 4}: true, // left
		{R: 2, C: 4}: true, // diagonal
	}
	if len(got) != 3 {
		t.Fatalf("prefetch = %v, want 3 sets", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected prefetch target %v", id)
		}
	}
	// Bottom-right quadrant of the same set.
	sp = p.CameraAngles(11, 17)
	got = p.QuadrantPrefetch(sp)
	want = map[ViewSetID]bool{
		{R: 4, C: 5}: true,
		{R: 3, C: 6}: true,
		{R: 4, C: 6}: true,
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("bottom-right: unexpected prefetch target %v", id)
		}
	}
}

func TestQuadrantPrefetchAtPole(t *testing.T) {
	p := ScaledParams(10, 3, 8)
	// Near the north pole, top quadrant: the row neighbor above does not
	// exist, so fewer sets are returned, and none invalid.
	sp := geom.Spherical{Theta: 0.01, Phi: 0.1}
	got := p.QuadrantPrefetch(sp)
	if len(got) == 0 {
		t.Fatal("no prefetch targets at pole")
	}
	for _, id := range got {
		if !p.ValidID(id) {
			t.Errorf("invalid prefetch target %v", id)
		}
	}
}

func TestQuadrantPrefetchWrapsColumns(t *testing.T) {
	p := ScaledParams(10, 3, 8)
	// Left quadrant of column 0 must wrap to the last set column.
	sp := p.CameraAngles(9, 0)
	found := false
	for _, id := range p.QuadrantPrefetch(sp) {
		if id.C == p.SetCols()-1 {
			found = true
		}
	}
	if !found {
		t.Error("prefetch did not wrap across phi = 0")
	}
}

// TestQuadrantPrefetchAcrossSeamAndPoles walks the cursor across the phi
// seam in both directions on every latitude from one pole to the other. In
// the half camera step after phi = 0 the cursor's column rounds up to Cols
// and wraps to column 0, which it approaches from the left: the column and
// diagonal targets must be the last set column's, not column 1's. Beyond
// the first and last camera rows there is no row neighbour to prefetch.
func TestQuadrantPrefetchAcrossSeamAndPoles(t *testing.T) {
	p := ScaledParams(10, 3, 8) // lattice 18x36, sets 6x12
	stepT := math.Pi / float64(p.Rows())
	stepP := 2 * math.Pi / float64(p.Cols())
	sign := func(x float64) int {
		if x < 0 {
			return -1
		}
		return 1
	}
	checked, seam := 0, 0
	check := func(sp geom.Spherical) {
		i, j := p.NearestCamera(sp)
		cur := p.ViewSetOf(i, j)
		c := p.SetCenterAngles(cur)
		// Signed offsets from the set's centre, in camera steps. Within half
		// a step of the centre the quadrant is a convention, not a side.
		dPhi := math.Remainder(sp.Phi-c.Phi, 2*math.Pi) / stepP
		dTheta := (sp.Theta - c.Theta) / stepT
		if math.Abs(dPhi) <= 0.5 || math.Abs(dTheta) <= 0.5 {
			return
		}
		r := cur.R + sign(dTheta)
		col := (cur.C + sign(dPhi) + p.SetCols()) % p.SetCols()
		want := []ViewSetID{{R: cur.R, C: col}}
		if r >= 0 && r < p.SetRows() {
			want = []ViewSetID{{R: r, C: cur.C}, {R: cur.R, C: col}, {R: r, C: col}}
		}
		got := p.QuadrantPrefetch(sp)
		if len(got) != len(want) {
			t.Fatalf("cursor %+v in %v: prefetch %v, want %v", sp, cur, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("cursor %+v in %v: prefetch %v, want %v", sp, cur, got, want)
			}
		}
		checked++
		if sp.Phi < stepP/2 {
			seam++
		}
	}
	// Quarter camera steps: four steps either side of the seam, and pole to
	// pole starting a tenth of a step inside the north pole.
	for ti := 0; ti < 4*p.Rows(); ti++ {
		theta := (0.1 + 0.25*float64(ti)) * stepT
		for k := -16; k <= 16; k++ {
			check(geom.Spherical{Theta: theta, Phi: math.Mod(2*math.Pi+0.25*float64(k)*stepP, 2*math.Pi)})
		}
		for k := 16; k >= -16; k-- {
			check(geom.Spherical{Theta: theta, Phi: math.Mod(2*math.Pi+0.25*float64(k)*stepP, 2*math.Pi)})
		}
	}
	if checked < 1000 || seam < 50 {
		t.Fatalf("walk checked %d cursors, %d of them in the seam's half step", checked, seam)
	}
}

// Properties from DESIGN.md: the prediction is always a subset of the
// 8-neighborhood and always includes the quadrant's straight neighbors
// when they exist.
func TestQuadrantPrefetchPropertyQuick(t *testing.T) {
	p := ScaledParams(10, 3, 8)
	f := func(thetaRaw, phiRaw float64) bool {
		theta := math.Mod(math.Abs(thetaRaw), math.Pi)
		phi := math.Mod(math.Abs(phiRaw), 2*math.Pi)
		if math.IsNaN(theta) || math.IsNaN(phi) {
			return true
		}
		sp := geom.Spherical{Theta: theta, Phi: phi}
		i, j := p.NearestCamera(sp)
		cur := p.ViewSetOf(i, j)
		neighbors := map[ViewSetID]bool{}
		for _, n := range p.Neighbors(cur) {
			neighbors[n] = true
		}
		preds := p.QuadrantPrefetch(sp)
		if len(preds) == 0 || len(preds) > 3 {
			return false
		}
		for _, id := range preds {
			if id == cur || !neighbors[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStagingOrderSortsByProximity(t *testing.T) {
	p := ScaledParams(15, 3, 8)
	sp := geom.Spherical{Theta: math.Pi / 2, Phi: math.Pi}
	order := p.StagingOrder(sp)
	if len(order) != p.NumViewSets() {
		t.Fatalf("order covers %d sets, want %d", len(order), p.NumViewSets())
	}
	prev := -1.0
	for _, id := range order {
		d := p.AngularDistToSet(sp, id)
		if d < prev-1e-12 {
			t.Fatalf("staging order not sorted: %v at %v after %v", id, d, prev)
		}
		prev = d
	}
	// First element is the current view set (distance ~0).
	i, j := p.NearestCamera(sp)
	if order[0] != p.ViewSetOf(i, j) {
		t.Errorf("first staged set = %v, want current %v", order[0], p.ViewSetOf(i, j))
	}
	// Every set appears exactly once.
	seen := map[ViewSetID]bool{}
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate %v in staging order", id)
		}
		seen[id] = true
	}
}

func TestStagingOrderDeterministic(t *testing.T) {
	p := ScaledParams(15, 3, 8)
	sp := geom.Spherical{Theta: 1.0, Phi: 2.0}
	a := p.StagingOrder(sp)
	b := p.StagingOrder(sp)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("staging order not deterministic")
		}
	}
}
