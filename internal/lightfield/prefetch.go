package lightfield

import (
	"math"
	"sort"

	"lonviz/internal/geom"
)

// QuadrantPrefetch implements the paper's prefetch policy (Figure 4): given
// the current view direction, determine the containing view set and the
// quadrant of its angular span that the cursor occupies, and return the
// neighboring view sets on that side — the row neighbor, the column
// neighbor, and the diagonal between them. Row neighbors clamp at the
// poles; column neighbors wrap.
//
// The returned slice never includes the current view set, contains no
// duplicates, and is ordered by likelihood (straight neighbors before the
// diagonal).
func (p Params) QuadrantPrefetch(sp geom.Spherical) []ViewSetID {
	row, col := p.LatticeCoords(sp)
	i := int(math.Round(row))
	if i < 0 {
		i = 0
	}
	if i >= p.Rows() {
		i = p.Rows() - 1
	}
	j := int(math.Round(col)) % p.Cols()
	if j < 0 {
		j += p.Cols()
	}
	if col > float64(j)+0.5 {
		// The half step after phi = 0 rounds up to column Cols, which is
		// column 0 approached from its left. Measure the cursor from there,
		// or fc is a whole turn off and picks the far-side neighbour.
		col -= float64(p.Cols())
	}
	cur := p.ViewSetOf(i, j)

	// Fractional position of the cursor within the view set's angular span.
	fr := (row - float64(cur.R*p.ViewSetL)) / float64(p.ViewSetL)
	fc := (col - float64(cur.C*p.ViewSetL)) / float64(p.ViewSetL)

	dr := -1
	if fr >= 0.5 {
		dr = 1
	}
	dc := -1
	if fc >= 0.5 {
		dc = 1
	}

	wrapC := func(c int) int {
		c %= p.SetCols()
		if c < 0 {
			c += p.SetCols()
		}
		return c
	}
	var out []ViewSetID
	add := func(r, c int) {
		if r < 0 || r >= p.SetRows() {
			return
		}
		id := ViewSetID{R: r, C: wrapC(c)}
		if id == cur {
			return
		}
		out = append(out, id)
	}
	add(cur.R+dr, cur.C)    // vertical neighbor on the cursor's side
	add(cur.R, cur.C+dc)    // horizontal neighbor on the cursor's side
	add(cur.R+dr, cur.C+dc) // the diagonal between them
	return dedupIDs(out)
}

// StagingOrder returns all view sets ordered by angular distance from the
// cursor direction — the order in which the client agent's aggressive
// prestaging stage copies them to the LAN depot (Figure 5: "ordered by
// proximity to cursor ... updated dynamically as the cursor moves"). Ties
// break in row-major ID order so the ordering is deterministic.
func (p Params) StagingOrder(sp geom.Spherical) []ViewSetID {
	ids := p.AllViewSets()
	dist := make(map[ViewSetID]float64, len(ids))
	for _, id := range ids {
		dist[id] = p.AngularDistToSet(sp, id)
	}
	sort.Slice(ids, func(x, y int) bool {
		a, b := ids[x], ids[y]
		da, db := dist[a], dist[b]
		if da != db {
			return da < db
		}
		if a.R != b.R {
			return a.R < b.R
		}
		return a.C < b.C
	})
	return ids
}
