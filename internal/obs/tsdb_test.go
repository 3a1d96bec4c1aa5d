package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic sampling.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.UnixMilli(1_700_000_000_000)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestTSDBScalarRingWraparound(t *testing.T) {
	reg := NewRegistry()
	clock := newFakeClock()
	db := NewTSDB(TSDBConfig{
		Registry: reg,
		Tiers:    []Tier{{Step: time.Second, Slots: 4}},
		Clock:    clock.Now,
	})
	ctr := reg.Counter("test.wrap")
	// 10 samples into a 4-slot ring: only the newest 4 survive.
	for i := 0; i < 10; i++ {
		ctr.Inc()
		db.Sample()
		clock.Advance(time.Second)
	}
	pts := db.Points("test.wrap", clock.Now().Add(-time.Hour))
	if len(pts) != 4 {
		t.Fatalf("got %d points after wraparound, want 4", len(pts))
	}
	for i, want := range []float64{7, 8, 9, 10} {
		if pts[i].V != want {
			t.Errorf("point %d = %v, want %v", i, pts[i].V, want)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Errorf("points not oldest-first: t[%d]=%d t[%d]=%d", i-1, pts[i-1].T, i, pts[i].T)
		}
	}
}

func TestTSDBTieredDownsampling(t *testing.T) {
	reg := NewRegistry()
	clock := newFakeClock()
	db := NewTSDB(TSDBConfig{
		Registry: reg,
		Tiers:    []Tier{{Step: time.Second, Slots: 5}, {Step: 10 * time.Second, Slots: 6}},
		Clock:    clock.Now,
	})
	g := reg.Gauge("test.tiered")
	for i := 0; i < 35; i++ {
		g.Set(int64(i))
		db.Sample()
		clock.Advance(time.Second)
	}
	// A query inside the finest tier's 5 s span uses full resolution.
	fine := db.Points("test.tiered", clock.Now().Add(-4*time.Second))
	if len(fine) < 3 {
		t.Fatalf("fine query got %d points, want >=3", len(fine))
	}
	for i := 1; i < len(fine); i++ {
		if step := fine[i].T - fine[i-1].T; step != 1000 {
			t.Errorf("fine tier step %dms, want 1000", step)
		}
	}
	// A query past the finest tier's span falls back to the 10 s tier:
	// decimated, not averaged, and still covering the old samples.
	coarse := db.Points("test.tiered", clock.Now().Add(-30*time.Second))
	if len(coarse) < 3 {
		t.Fatalf("coarse query got %d points, want >=3", len(coarse))
	}
	for i := 1; i < len(coarse); i++ {
		if step := coarse[i].T - coarse[i-1].T; step < 9000 {
			t.Errorf("coarse tier step %dms, want >=9000 (decimated)", step)
		}
	}
}

func TestTSDBRateCounterReset(t *testing.T) {
	reg := NewRegistry()
	clock := newFakeClock()
	db := NewTSDB(TSDBConfig{
		Registry: reg,
		Tiers:    []Tier{{Step: time.Second, Slots: 16}},
		Clock:    clock.Now,
	})
	// Gauges sample arbitrary values, letting us shape a cumulative series
	// with a mid-window counter reset: 0, 10, 3, 5.
	g := reg.Gauge("test.reset")
	for _, v := range []int64{0, 10, 3, 5} {
		g.Set(v)
		db.Sample()
		clock.Advance(time.Second)
	}
	// Increase = (10-0) + 3 (post-reset value) + (5-3) = 15 over 3 s.
	inc, n := db.Delta("test.reset", 10*time.Second)
	if n != 4 {
		t.Fatalf("Delta saw %d samples, want 4", n)
	}
	if inc != 15 {
		t.Errorf("reset-aware Delta = %v, want 15", inc)
	}
	// Pointwise, the sample after the reset counts its own value.
	var rates []float64
	for _, p := range db.RateSeries("test.reset", time.Time{}) {
		rates = append(rates, p.V)
	}
	if want := []float64{10, 3, 2}; !reflect.DeepEqual(rates, want) {
		t.Errorf("RateSeries = %v, want %v", rates, want)
	}
}

func TestTSDBQuantileOverWindow(t *testing.T) {
	reg := NewRegistry()
	clock := newFakeClock()
	db := NewTSDB(TSDBConfig{
		Registry: reg,
		Tiers:    []Tier{{Step: time.Second, Slots: 300}},
		Clock:    clock.Now,
	})
	h := reg.Histogram("test.lat", 1, 5, 25, 100, 500)
	// Old traffic: fast. Falls out of the query window.
	for i := 0; i < 100; i++ {
		h.Observe(2)
	}
	db.Sample()
	clock.Advance(60 * time.Second)
	db.Sample() // window anchor carrying the old cumulative counts
	clock.Advance(time.Second)
	// Recent traffic: slow. Only these observations are inside the window.
	for i := 0; i < 50; i++ {
		h.Observe(200)
	}
	db.Sample()

	q, n := db.QuantileOver("test.lat", 0.5, 10*time.Second)
	if n != 50 {
		t.Fatalf("window held %d observations, want 50 (old traffic leaked in)", n)
	}
	if q <= 100 || q > 500 {
		t.Errorf("windowed p50 = %v, want within (100, 500] (the slow bucket)", q)
	}
	// The all-time quantile still sees the fast majority — proving the
	// window isolated the regression.
	if all := h.Quantile(0.5); all > 100 {
		t.Errorf("all-time p50 = %v, want <=100", all)
	}
	// An empty window reports zero observations, not a stale value.
	clock.Advance(time.Hour)
	if _, n := db.QuantileOver("test.lat", 0.5, 10*time.Second); n != 0 {
		t.Errorf("empty window reported %d observations, want 0", n)
	}
}

func TestTSDBHistogramResetFallsBackToNewest(t *testing.T) {
	reg := NewRegistry()
	clock := newFakeClock()
	db := NewTSDB(TSDBConfig{
		Registry: reg,
		Tiers:    []Tier{{Step: time.Second, Slots: 16}},
		Clock:    clock.Now,
	})
	h := reg.Histogram("test.reset.hist", 1, 10, 100)
	for i := 0; i < 40; i++ {
		h.Observe(5)
	}
	db.Sample()
	clock.Advance(time.Second)
	// Simulate a restart: a fresh histogram under the same name with fewer
	// cumulative observations.
	reg.mu.Lock()
	delete(reg.metrics, "test.reset.hist")
	reg.mu.Unlock()
	h2 := reg.Histogram("test.reset.hist", 1, 10, 100)
	for i := 0; i < 10; i++ {
		h2.Observe(50)
	}
	db.Sample()
	q, n := db.QuantileOver("test.reset.hist", 0.5, 10*time.Second)
	if n != 10 {
		t.Fatalf("reset window held %d observations, want 10 (newest sample alone)", n)
	}
	if q <= 10 {
		t.Errorf("post-reset p50 = %v, want in the slow bucket (>10)", q)
	}
}

func TestTSDBHandler(t *testing.T) {
	reg := NewRegistry()
	clock := newFakeClock()
	db := NewTSDB(TSDBConfig{
		Registry: reg,
		Tiers:    []Tier{{Step: time.Second, Slots: 8}},
		Clock:    clock.Now,
	})
	ctr := reg.Counter("test.handler")
	for i := 0; i < 4; i++ {
		ctr.Add(3)
		db.Sample()
		clock.Advance(time.Second)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	var idx struct {
		Tiers []struct {
			StepMs int64 `json:"step_ms"`
		} `json:"tiers"`
		Series []SeriesInfo `json:"series"`
	}
	getJSON(t, srv.URL+"/", &idx)
	if len(idx.Tiers) != 1 || idx.Tiers[0].StepMs != 1000 {
		t.Errorf("index tiers = %+v", idx.Tiers)
	}
	if len(idx.Series) != 1 || idx.Series[0].Name != "test.handler" {
		t.Fatalf("index series = %+v", idx.Series)
	}

	var resp struct {
		Name   string  `json:"name"`
		Points []Point `json:"points"`
	}
	getJSON(t, srv.URL+"/?name=test.handler&since=1m", &resp)
	if len(resp.Points) != 4 {
		t.Fatalf("raw query got %d points, want 4", len(resp.Points))
	}
	var rate struct {
		Points []Point `json:"points"`
	}
	getJSON(t, srv.URL+"/?name=test.handler&since=1m&agg=rate", &rate)
	if len(rate.Points) != 3 {
		t.Fatalf("rate query got %d points, want 3", len(rate.Points))
	}
	if rate.Points[0].V != 3 {
		t.Errorf("rate = %v, want 3/s", rate.Points[0].V)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestTSDBConcurrentSampleAndQuery(t *testing.T) {
	reg := NewRegistry()
	db := NewTSDB(TSDBConfig{
		Registry: reg,
		Tiers:    []Tier{{Step: time.Millisecond, Slots: 64}},
	})
	ctr := reg.Counter("test.conc")
	h := reg.Histogram("test.conc.ms", 1, 10, 100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctr.Inc()
				h.Observe(float64(ctr.Value() % 100))
				db.Sample()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			since := time.Now().Add(-time.Minute)
			for {
				select {
				case <-stop:
					return
				default:
				}
				db.Points("test.conc", since)
				db.RateSeries("test.conc", since)
				db.QuantileOver("test.conc.ms", 0.99, time.Minute)
				db.Series()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestTSDBOffPathAllocs pins the off path: with -metrics-addr unset no
// TSDB exists, and the nil receiver must stay zero-alloc so instrumented
// call sites cost nothing in un-instrumented processes.
func TestTSDBOffPathAllocs(t *testing.T) {
	var db *TSDB
	if n := testing.AllocsPerRun(100, func() {
		db.Sample()
		db.Points("x", time.Time{})
		db.RateSeries("x", time.Time{})
		db.QuantileOver("x", 0.99, time.Minute)
		if db.Names() != nil {
			t.Fatal("nil TSDB returned names")
		}
	}); n != 0 {
		t.Errorf("nil TSDB path allocates %v per run, want 0", n)
	}
	if DepotLatencyBias(nil, time.Minute) != nil {
		t.Error("DepotLatencyBias(nil) should be nil so lors skips scoring entirely")
	}
}

// TestTSDBRunStops proves Run exits promptly when stop closes and leaves
// no goroutine behind.
func TestTSDBRunStops(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := NewRegistry()
	db := NewTSDB(TSDBConfig{Registry: reg, Tiers: []Tier{{Step: time.Millisecond, Slots: 8}}})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		db.Run(stop, time.Millisecond)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop")
	}
	// Allow the runtime a beat to retire the goroutine.
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d -> %d", before, after)
	}
}
