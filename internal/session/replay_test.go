package session

import (
	"fmt"
	"testing"

	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
	"lonviz/internal/lru"
)

// prefetchFunc names the one view set a move prefetches, given what the
// cache holds.
type prefetchFunc = func(sp geom.Spherical, held func(lightfield.ViewSetID) bool) (lightfield.ViewSetID, bool)

// replayPolicy builds a policy's prefetchFunc, a fresh one per walk: the
// path policy remembers the cursor's last move.
type replayPolicy func(p lightfield.Params) prefetchFunc

// quadrantFirst is the paper's Figure 4 policy when one prefetch lands per
// move: the quadrant's first target not held.
func quadrantFirst(p lightfield.Params) prefetchFunc {
	return func(sp geom.Spherical, held func(lightfield.ViewSetID) bool) (lightfield.ViewSetID, bool) {
		for _, id := range p.QuadrantPrefetch(sp) {
			if !held(id) {
				return id, true
			}
		}
		return lightfield.ViewSetID{}, false
	}
}

// pathFirst is the client agent's default policy, the function it calls.
func pathFirst(p lightfield.Params) prefetchFunc {
	return lightfield.NewTrajectoryPredictor(p).PathPrefetch
}

// replay walks the moves through a cache of sets view sets: each move's
// set is a hit or a miss (then cached), and then the policy's one target
// lands before the next move — one think window carries one prefetch. It
// returns the hits.
func replay(t *testing.T, p lightfield.Params, moves []geom.Spherical, sets int, policy replayPolicy) int {
	t.Helper()
	cache, err := lru.New(int64(sets))
	if err != nil {
		t.Fatal(err)
	}
	held := func(id lightfield.ViewSetID) bool { return cache.Contains(id.String()) }
	put := func(id lightfield.ViewSetID) {
		if err := cache.Put(id.String(), []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	next := policy(p)
	hits := 0
	for _, sp := range moves {
		id := p.ViewSetOf(p.NearestCamera(sp))
		if _, ok := cache.Get(id.String()); ok {
			hits++
		} else {
			put(id)
		}
		if target, ok := next(sp, held); ok {
			put(target)
		}
	}
	return hits
}

// TestReplayPicksPathPolicy replays seeded cursor walks — StandardScript's
// walk at four momenta, 0.6 being StandardScript's own — over the
// benchmark's lattice (72 view sets of 150 KiB) through a 26-set cache
// (4 MiB of them), once under the paper's quadrant and once under the
// agent's path-first policy, one landed prefetch per move. Path-first must
// be no worse on a walk with no momentum, where a step says nothing of
// the next, and clearly ahead once moves carry direction.
func TestReplayPicksPathPolicy(t *testing.T) {
	const (
		walks     = 20
		moves     = 400
		cacheSets = 26
	)
	p := lightfield.ScaledParams(5, 6, 100)
	t.Logf("%-8s %-9s %-9s", "momentum", "quadrant", "path")
	for _, momentum := range []float64{0, 0.3, 0.6, 0.9} {
		var quadHits, pathHits int
		for seed := int64(1); seed <= walks; seed++ {
			s, err := walk(p, moves, seed, momentum)
			if err != nil {
				t.Fatal(err)
			}
			quadHits += replay(t, p, s.Moves, cacheSets, quadrantFirst)
			pathHits += replay(t, p, s.Moves, cacheSets, pathFirst)
		}
		quad := float64(quadHits) / (walks * moves)
		path := float64(pathHits) / (walks * moves)
		t.Logf("%-8.1f %-9.3f %-9.3f", momentum, quad, path)
		name := fmt.Sprintf("momentum %.1f: hit ratio quadrant %.3f, path %.3f", momentum, quad, path)
		if momentum == 0 && path < quad-0.01 {
			t.Errorf("%s: path-first falls behind the quadrant on a walk without direction", name)
		}
		if momentum >= 0.3 && path < quad+0.05 {
			t.Errorf("%s: path-first is not 0.05 ahead", name)
		}
	}
}
