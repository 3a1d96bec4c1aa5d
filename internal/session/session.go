// Package session orchestrates reproducible browsing sessions. The paper
// drives every experiment with "a standard list of cursor movements" that
// generates a sequence of 58 view set requests; Script synthesizes such a
// list deterministically, Run executes it against a viewer, and the series
// helpers extract the per-access latency curves plotted in Figures 8-12.
package session

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
)

// Script is a deterministic list of cursor positions. Every move lands in
// a different view set than the previous one, so a viewer holding only the
// current view set issues exactly one view set request per move — the
// paper's "sequence of 58 view set requests".
type Script struct {
	Moves []geom.Spherical
}

// PaperAccessCount is the length of the paper's orchestrated sequence.
const PaperAccessCount = 58

// StandardScript generates a script of n view-set transitions over the
// database geometry p: a seeded random walk across neighboring view sets
// with directional momentum (users pan in sweeps, not white noise), never
// re-requesting the set it is already in. Jitter displaces each move
// within the target set's angular span so positions look like human cursor
// input.
func StandardScript(p lightfield.Params, n int, seed int64) (Script, error) {
	return walk(p, n, seed, 0.6)
}

// walk is StandardScript's walk, keeping its direction from one move to
// the next with probability momentum.
func walk(p lightfield.Params, n int, seed int64, momentum float64) (Script, error) {
	if err := p.Validate(); err != nil {
		return Script{}, err
	}
	if n <= 0 {
		return Script{}, fmt.Errorf("session: non-positive access count %d", n)
	}
	// Function-local and never shared, so the unsynchronized *rand.Rand is
	// safe even when scripts are generated from concurrent tests.
	rng := rand.New(rand.NewSource(seed))
	cur := lightfield.ViewSetID{R: p.SetRows() / 2, C: p.SetCols() / 2}
	dr, dc := 0, 1
	var moves []geom.Spherical
	for len(moves) < n {
		if rng.Float64() > momentum {
			dirs := [][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}}
			d := dirs[rng.Intn(len(dirs))]
			dr, dc = d[0], d[1]
		}
		next := lightfield.ViewSetID{R: cur.R + dr, C: cur.C + dc}
		if next.R < 0 || next.R >= p.SetRows() {
			dr = -dr // bounce off the poles
			continue
		}
		next.C = ((next.C % p.SetCols()) + p.SetCols()) % p.SetCols()
		if next == cur {
			dc = 1 - dc // tiny lattice wrapped onto itself; nudge
			continue
		}
		cur = next
		center := p.SetCenterAngles(cur)
		span := geom.Radians(p.AngularStepDeg) * float64(p.ViewSetL)
		jitter := geom.Spherical{
			Theta: geom.Clamp(center.Theta+(rng.Float64()-0.5)*span*0.4, 0.01, 3.13),
			Phi:   center.Phi + (rng.Float64()-0.5)*span*0.4,
		}
		moves = append(moves, jitter)
	}
	return Script{Moves: moves}, nil
}

// RunOptions controls session pacing.
type RunOptions struct {
	// ThinkTime is the pause between cursor movements, modeling the
	// human-generated pacing of the paper's orchestration. Zero means
	// back-to-back.
	ThinkTime time.Duration
	// OnAccess, when set, is called after each access with its record.
	OnAccess func(i int, rec agent.AccessRecord)
}

// Run executes the script against a viewer and returns one access record
// per move, in order.
func Run(ctx context.Context, v *agent.Viewer, s Script, opts RunOptions) ([]agent.AccessRecord, error) {
	records := make([]agent.AccessRecord, 0, len(s.Moves))
	for i, sp := range s.Moves {
		if err := ctx.Err(); err != nil {
			return records, err
		}
		rec, err := v.MoveTo(ctx, sp)
		if err != nil {
			return records, fmt.Errorf("session: move %d: %w", i, err)
		}
		records = append(records, rec)
		if opts.OnAccess != nil {
			opts.OnAccess(i, rec)
		}
		if opts.ThinkTime > 0 && i < len(s.Moves)-1 {
			select {
			case <-time.After(opts.ThinkTime):
			case <-ctx.Done():
				return records, ctx.Err()
			}
		}
	}
	return records, nil
}

// Seconds extracts a latency series in seconds using the given accessor.
func Seconds(records []agent.AccessRecord, f func(agent.AccessRecord) time.Duration) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		out[i] = f(r).Seconds()
	}
	return out
}

// TotalSeconds returns the client-observed latency series (Figures 9-11).
func TotalSeconds(records []agent.AccessRecord) []float64 {
	return Seconds(records, func(r agent.AccessRecord) time.Duration { return r.Total })
}

// CommSeconds returns the communication latency series (Figure 12).
func CommSeconds(records []agent.AccessRecord) []float64 {
	return Seconds(records, func(r agent.AccessRecord) time.Duration { return r.Comm })
}

// DecompressSeconds returns the decompression time series (Figure 8).
func DecompressSeconds(records []agent.AccessRecord) []float64 {
	return Seconds(records, func(r agent.AccessRecord) time.Duration { return r.Decompress })
}

// ClassCounts tallies accesses by class over a slice of records.
func ClassCounts(records []agent.AccessRecord) map[agent.AccessClass]int {
	out := make(map[agent.AccessClass]int)
	for _, r := range records {
		out[r.Class]++
	}
	return out
}

// InitialPhaseLength returns the index after which no WAN accesses occur —
// the paper's "initial phase" boundary (section 4.3: "the initial phase
// lasts 33 accesses" at 500x500). A session with no WAN accesses has an
// initial phase of 0; one ending on a WAN access has len(records).
func InitialPhaseLength(records []agent.AccessRecord) int {
	last := 0
	for i, r := range records {
		if r.Class == agent.AccessWAN {
			last = i + 1
		}
	}
	return last
}

// WANRate returns the fraction of accesses in records[:n] served from the
// WAN (the paper's initial-phase WAN access rate).
func WANRate(records []agent.AccessRecord, n int) float64 {
	if n > len(records) {
		n = len(records)
	}
	if n == 0 {
		return 0
	}
	wan := 0
	for _, r := range records[:n] {
		if r.Class == agent.AccessWAN {
			wan++
		}
	}
	return float64(wan) / float64(n)
}

// HitRate returns the fraction of accesses in records[:n] served from the
// agent cache.
func HitRate(records []agent.AccessRecord, n int) float64 {
	if n > len(records) {
		n = len(records)
	}
	if n == 0 {
		return 0
	}
	hits := 0
	for _, r := range records[:n] {
		if r.Class == agent.AccessHit {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// WriteSeriesCSV writes "access,value" rows for one or more aligned series
// with a header, in the layout of the paper's per-access figures.
func WriteSeriesCSV(w io.Writer, header []string, series ...[]float64) error {
	if len(series) == 0 {
		return fmt.Errorf("session: no series")
	}
	n := len(series[0])
	for _, s := range series {
		if len(s) != n {
			return fmt.Errorf("session: series lengths differ")
		}
	}
	if _, err := fmt.Fprintf(w, "access"); err != nil {
		return err
	}
	for _, h := range header {
		if _, err := fmt.Fprintf(w, ",%s", h); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(w, "%d", i+1); err != nil {
			return err
		}
		for _, s := range series {
			if _, err := fmt.Fprintf(w, ",%.6f", s[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
