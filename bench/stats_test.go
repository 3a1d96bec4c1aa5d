package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},             // odd: the middle pass
		{[]float64{9, 1, 5, 3, 7}, 5},       // five passes
		{[]float64{4, 1, 3, 2}, 2.5},        // even: mean of the middle two
		{[]float64{10, 20}, 15},             // two traced passes
		{[]float64{7}, 7},                   // one pass
		{nil, 0},                            // nothing measured
		{[]float64{1, 1, 1000}, 1},          // one slow pass does not move it
		{[]float64{2, 1000, 1, 1000, 3}, 3}, // nor do two of five
		{[]float64{0.5, 0.25, 0.75, 1}, 0.625},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestTail10(t *testing.T) {
	if _, err := tail10(make([]float64, minTailSamples-1)); !errors.Is(err, errTailSamples) {
		t.Errorf("tail10 of 99 samples: err = %v, want errTailSamples", err)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64((i*7)%200 + 1) // 1..200 in scrambled order
	}
	got, err := tail10(xs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 190.5; got != want { // mean of 181..200
		t.Errorf("tail10 = %v, want %v", got, want)
	}
}

func TestOpsPerSecondExcludesThink(t *testing.T) {
	// 100 ops in a 10 s pass of which 8 s were think-time sleeps: the
	// system was given work for 2 s.
	if got := opsPerSecond(100, 10*time.Second, 8*time.Second); got != 50 {
		t.Errorf("ops/s = %v, want 50", got)
	}
	if got := opsPerSecond(100, 10*time.Second, 0); got != 10 {
		t.Errorf("ops/s without think = %v, want 10", got)
	}
	if got := opsPerSecond(5, time.Second, time.Second); got != 0 {
		t.Errorf("ops/s with no busy time = %v, want 0", got)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestOpSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Trace: 0, Name: "op", Start: 0, End: 10_000},
		{ID: 2, Parent: 1, Trace: 0, Name: "agent.fetch", Start: 1_000, End: 5_000},
		{ID: 3, Parent: 2, Trace: 0, Name: "net.read_wait.far", Start: 2_000, End: 4_000},  // grandchild: not the op's
		{ID: 4, Parent: 1, Trace: 0, Name: "viewer.decode", Start: 4_000, End: 7_000},      // overlaps the fetch
		{ID: 5, Parent: 1, Trace: 0, Name: "lightfield.render", Start: 7_000, End: 12_000}, // clipped to the op
		{ID: 6, Parent: 0, Trace: -1, Name: "ibp.dial", Start: 0, End: 50_000},             // background: no op
	}
	// Children cover [1,10] ms of the op's [0,10] ms.
	if got := opSelfMeanMs(spans); math.Abs(got-1) > 1e-9 {
		t.Errorf("op self time = %v ms, want 1", got)
	}
}
