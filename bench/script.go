package main

import (
	"math"
	"math/rand"

	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
	"lonviz/internal/session"
)

// walkSeed fixes the shape of the cursor walk: which neighbouring view set
// each move enters and which quadrant of it the cursor lands in.
const walkSeed = 1

// cursorScript builds the cursor positions of client k of a browse pass.
//
// The walk's shape comes from session.StandardScript with a fixed seed. A
// pass's clients start at different points of the walk and lie at evenly
// spaced rotations of it in phi (by whole view sets), every other one
// mirrored in theta; the workload seed decides which client gets which
// placement and where inside its quadrant each cursor position falls.
// Different seeds therefore send different view sets, bytes and pixels
// through each client, while the pass as a whole keeps the same share of
// revisits, of moves the quadrant prefetch can anticipate, and of moves
// across the phi seam (where the quadrant prediction is off).
//
// Why not a walk per seed: a paced far-link client completes some 40 moves
// in a pass, and over so few moves two random walks differ by ±15 % in mean
// latency just by how often they turn back (measured on 120-move runs:
// seeds 1–6 read 80–114 ms). Why not a rotation per seed: six clients two
// sets apart read 6 % slower on odd rotations than on even ones. A
// benchmark with a 10 % bound cannot carry either as noise.
func cursorScript(p lightfield.Params, n int, seed int64, k, clients int) ([]geom.Spherical, error) {
	const stagger = 53 // moves between the starting points of two clients
	base, err := session.StandardScript(p, n+k*stagger, walkSeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*131 + int64(k)))
	span := geom.Radians(p.AngularStepDeg) * float64(p.ViewSetL)
	place := int((seed%int64(clients)+int64(clients))%int64(clients)+int64(k)) % clients
	turn := float64(place*(p.SetCols()/clients)) * span
	mirror := (int64(k)+seed)%2 != 0
	moves := make([]geom.Spherical, n)
	for m, sp := range base.Moves[k*stagger:] {
		i, j := p.NearestCamera(sp)
		c := p.SetCenterAngles(p.ViewSetOf(i, j))
		// Keep the side of the centre (the prefetch quadrant), redraw the
		// distance from it within StandardScript's ±0.2 span.
		depth := func(d float64) float64 {
			return math.Copysign((0.1+0.9*rng.Float64())*0.2*span, d)
		}
		theta := c.Theta + depth(sp.Theta-c.Theta)
		if mirror {
			theta = math.Pi - theta
		}
		phi := math.Mod(c.Phi+depth(sp.Phi-c.Phi)+turn, 2*math.Pi)
		moves[m] = geom.Spherical{Theta: geom.Clamp(theta, 0.01, math.Pi-0.01), Phi: phi}
	}
	return moves, nil
}
