package main

import (
	"errors"
	"math"
	"sort"
	"time"
)

// minTailSamples is the smallest pass tail10 accepts: the slowest tenth
// must have at least ten samples behind it.
const minTailSamples = 100

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value, or the mean of the two middle values
// of an even-sized sample. An empty sample reads 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var errTailSamples = errors.New("tail10 needs at least 100 samples")

// tail10 is the mean of the slowest tenth of xs. It is used instead of a
// p90/p95 because in the browse workloads those percentiles sit on the
// hit/miss cliff and jump between the two populations from run to run.
func tail10(xs []float64) (float64, error) {
	if len(xs) < minTailSamples {
		return 0, errTailSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)-len(s)/10:]), nil
}

// opsPerSecond is ops over the time the system was given work: the pass
// wall time minus the think-time sleeps between ops.
func opsPerSecond(ops int, wall, think time.Duration) float64 {
	busy := (wall - think).Seconds()
	if busy <= 0 {
		return 0
	}
	return float64(ops) / busy
}

// spread is (max − min) ÷ median: a run's own reading of its noise.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
