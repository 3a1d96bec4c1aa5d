package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterMonotonic(t *testing.T) {
	c := NewCounter()
	c.Add(5)
	c.Add(-3) // ignored: counters are monotonic
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestNilMetricsAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(7)
	g.Add(1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must record nothing")
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("nil histogram quantile = %g, want 0", q)
	}
	var r *Registry
	r.Counter("x").Inc() // must not panic
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge()
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 2, 50, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	// Bucket bounds are inclusive upper edges: 0.5 and 1 land in <=1,
	// 2 in <=10, 50 in <=100, 1000 overflows.
	want := map[string]int64{"1": 2, "10": 1, "100": 1, "+Inf": 1}
	for k, n := range want {
		if s.Buckets[k] != n {
			t.Fatalf("bucket %q = %d, want %d (all: %v)", k, s.Buckets[k], n, s.Buckets)
		}
	}
	if s.Min != 0.5 || s.Max != 1000 {
		t.Fatalf("min/max = %g/%g, want 0.5/1000", s.Min, s.Max)
	}
	if got, want := s.Sum, 1053.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	// 100 observations uniform over (0,100] with bucket edges every 10:
	// interpolated quantiles should land within one bucket width of truth.
	h := NewHistogram(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 50, 10},
		{0.95, 95, 10},
		{0.99, 99, 10},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Fatalf("q%g = %g, want %g +/- %g", tc.q*100, got, tc.want, tc.tol)
		}
		if got <= 0 || got > 100 {
			t.Fatalf("q%g = %g out of observed range", tc.q*100, got)
		}
	}
	// Quantiles must be monotone in q.
	if !(h.Quantile(0.5) <= h.Quantile(0.95) && h.Quantile(0.95) <= h.Quantile(0.99)) {
		t.Fatal("quantiles not monotone")
	}
}

func TestHistogramOverflowQuantile(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(50)
	h.Observe(70)
	// Everything overflows: quantiles clamp at the max observed value.
	if got := h.Quantile(0.99); got != 70 {
		t.Fatalf("overflow q99 = %g, want 70", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 2, 3)
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.Buckets != nil {
		t.Fatalf("empty snapshot = %+v, want zeros", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBucketsMs...)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%1000) + 0.25)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	s := h.Snapshot()
	var bucketSum int64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if s.Min != 0.25 || s.Max != 999.25 {
		t.Fatalf("min/max = %g/%g, want 0.25/999.25", s.Min, s.Max)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b")
	c2 := r.Counter("a.b")
	if c1 != c2 {
		t.Fatal("same name must return same counter")
	}
	h1 := r.Histogram("h", 1, 2)
	h2 := r.Histogram("h", 5, 6) // later bounds ignored
	if h1 != h2 {
		t.Fatal("same name must return same histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type clash must panic")
		}
	}()
	r.Gauge("a.b")
}

func TestRegistrySnapshotAndNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram("h", 1, 10).Observe(5)
	r.RegisterSnapshot("comp", func() map[string]float64 {
		return map[string]float64{"hits": 4, "rate": 0.5}
	})
	snap := r.Snapshot()
	if snap["c"] != int64(3) || snap["g"] != int64(-2) {
		t.Fatalf("scalar snapshot wrong: %v", snap)
	}
	hs, ok := snap["h"].(HistogramSnapshot)
	if !ok || hs.Count != 1 {
		t.Fatalf("histogram snapshot wrong: %#v", snap["h"])
	}
	if snap["comp.hits"] != 4.0 || snap["comp.rate"] != 0.5 {
		t.Fatalf("snapshot closure not inlined: %v", snap)
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "c" || names[1] != "g" || names[2] != "h" {
		t.Fatalf("names = %v", names)
	}
}

func TestLabel(t *testing.T) {
	got := Label("ibp.op.ms", "op", "LOAD", "depot", "d1:80")
	want := "ibp.op.ms{depot=d1:80,op=LOAD}"
	if got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
	if Label("x") != "x" {
		t.Fatal("no labels must leave name unchanged")
	}
	if BaseName(got) != "ibp.op.ms" || BaseName("plain") != "plain" {
		t.Fatal("BaseName must strip the label block")
	}
}

// TestLabelOnePairMatchesGeneralPath: the one-pair fast path renders
// byte for byte what the sorting path does, empty keys and values included.
func TestLabelOnePairMatchesGeneralPath(t *testing.T) {
	for _, c := range [][3]string{
		{"ibp.server.op.ms", "op", "LOAD"},
		{"ibp.depot.ms", "depot", "127.0.0.1:7711"},
		{"ibp.errors", "op", ""},
		{"x", "", "v"},
		{"", "", ""},
	} {
		if got, want := Label(c[0], c[1], c[2]), labelSorted(c[0], []string{c[1], c[2]}); got != want {
			t.Errorf("Label(%q, %q, %q) = %q, general path %q", c[0], c[1], c[2], got, want)
		}
	}
}
