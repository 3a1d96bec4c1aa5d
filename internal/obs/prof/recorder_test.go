package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lonviz/internal/obs"
)

// testRecorder builds a recorder over private obs plumbing so tests do
// not pollute the process-default registry/tracer/logger.
func testRecorder(t *testing.T, cfg RecorderConfig) (*Recorder, *obs.Registry) {
	t.Helper()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
		cfg.Registry = reg
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(16)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(io.Discard, 16)
	}
	r := NewRecorder(cfg)
	t.Cleanup(r.Close)
	return r, reg
}

// waitBundles polls until the recorder retains want bundles or the
// deadline passes.
func waitBundles(t *testing.T, r *Recorder, want int) []*Bundle {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		bs := r.Bundles()
		if len(bs) >= want {
			return bs
		}
		if time.Now().After(deadline) {
			t.Fatalf("recorder retained %d bundles, want %d", len(bs), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var spinSink atomic.Uint64

// spin burns CPU until stop closes, under a class=testload pprof label,
// so the capture's CPU profile has labeled samples to record.
func spin(stop <-chan struct{}) {
	Do(context.Background(), func(context.Context) {
		var acc uint64
		for {
			select {
			case <-stop:
				spinSink.Add(acc)
				return
			default:
			}
			for i := 0; i < 1<<14; i++ {
				acc += uint64(i) * 2654435761
			}
		}
	}, KeyClass, "testload")
}

// TestCaptureBundleContents is the unit-level forensic contract: a
// capture taken while labeled work runs yields a bundle whose goroutine
// dump names the label, whose CPU profile references the label key, and
// whose auxiliary snapshots (heap, spans, events, tsdb window) are
// present and non-empty.
func TestCaptureBundleContents(t *testing.T) {
	SetLabelsEnabled(true)
	t.Cleanup(func() { SetLabelsEnabled(false) })

	reg := obs.NewRegistry()
	db := obs.NewTSDB(obs.TSDBConfig{Registry: reg})
	reg.Counter("test.counter").Add(7)
	db.Sample()

	// A parked goroutine under a known label: deterministically present in
	// the goroutine dump, labels inline at debug=1.
	release := make(chan struct{})
	parked := make(chan struct{})
	go Do(context.Background(), func(context.Context) {
		close(parked)
		<-release
	}, KeyClass, "parked_probe")
	<-parked
	defer close(release)

	// CPU-labeled spinners for the profile window. Sampling is
	// statistical, so retry the capture a few times before declaring the
	// label missing.
	stopSpin := make(chan struct{})
	var spinners sync.WaitGroup
	for i := 0; i < 2; i++ {
		spinners.Add(1)
		go func() {
			defer spinners.Done()
			spin(stopSpin)
		}()
	}
	defer func() {
		close(stopSpin)
		spinners.Wait()
	}()

	r, _ := testRecorder(t, RecorderConfig{Registry: reg, TSDB: db, CPUProfile: 250 * time.Millisecond})

	var b *Bundle
	for attempt := 0; attempt < 3; attempt++ {
		var err error
		b, err = r.Capture("alert:test-rule", "latency breach")
		if err != nil {
			t.Fatalf("Capture: %v", err)
		}
		if cpuProfileMentions(t, b.Files["cpu.pprof"], "testload") {
			break
		}
	}

	if b.Trigger != "alert:test-rule" || b.Note != "latency breach" {
		t.Errorf("bundle trigger/note = %q/%q", b.Trigger, b.Note)
	}
	for _, name := range []string{
		"cpu.pprof", "heap.pprof", "goroutines.txt",
		"spans.json", "events.json", "tsdb.json",
	} {
		if len(b.Files[name]) == 0 {
			t.Errorf("bundle file %s missing or empty (errors.txt: %s)", name, b.Files["errors.txt"])
		}
	}
	if !bytes.Contains(b.Files["goroutines.txt"], []byte("parked_probe")) {
		t.Error("goroutines.txt does not carry the parked goroutine's class label")
	}
	if !cpuProfileMentions(t, b.Files["cpu.pprof"], "class") ||
		!cpuProfileMentions(t, b.Files["cpu.pprof"], "testload") {
		t.Error("cpu.pprof does not reference the class=testload label after 3 attempts")
	}
	var window map[string][]obs.Point
	if err := json.Unmarshal(b.Files["tsdb.json"], &window); err != nil {
		t.Fatalf("tsdb.json unparseable: %v", err)
	}
	if len(window["test.counter"]) == 0 {
		t.Errorf("tsdb.json window lacks the sampled series, got %d series", len(window))
	}
}

// cpuProfileMentions gunzips a pprof CPU profile and byte-searches its
// string table for s.
func cpuProfileMentions(t *testing.T, data []byte, s string) bool {
	t.Helper()
	if len(data) == 0 {
		return false
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("cpu.pprof is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip cpu.pprof: %v", err)
	}
	return bytes.Contains(raw, []byte(s))
}

// TestTriggerAsyncCooldown: alert triggers inside the cooldown are
// suppressed (and counted), a later trigger past the cooldown records
// again.
func TestTriggerAsyncCooldown(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	r, reg := testRecorder(t, RecorderConfig{
		CPUProfile: time.Millisecond,
		Cooldown:   time.Minute,
		Clock:      clock,
	})

	if !r.TriggerAsync("alert:r1", "first") {
		t.Fatal("first trigger suppressed")
	}
	waitBundles(t, r, 1)

	advance(30 * time.Second)
	if r.TriggerAsync("alert:r1", "inside cooldown") {
		t.Error("trigger inside the cooldown was not suppressed")
	}
	if v := reg.Counter(obs.MCaptureSuppressed).Value(); v != 1 {
		t.Errorf("capture.suppressed = %d, want 1", v)
	}

	advance(31 * time.Second)
	if !r.TriggerAsync("alert:r1", "past cooldown") {
		t.Error("trigger past the cooldown was suppressed")
	}
	bs := waitBundles(t, r, 2)
	if bs[0].ID == bs[1].ID {
		t.Errorf("duplicate bundle IDs: %s", bs[0].ID)
	}
	if v := reg.Counter(obs.Label(obs.MCaptureBundles, "trigger", "alert")).Value(); v != 2 {
		t.Errorf("capture.bundles{trigger=alert} = %d, want 2", v)
	}
}

// TestCaptureBusy: the manual path bypasses the cooldown but still
// refuses while another capture is in flight.
func TestCaptureBusy(t *testing.T) {
	r, _ := testRecorder(t, RecorderConfig{CPUProfile: 500 * time.Millisecond})
	if !r.TriggerAsync("alert:r1", "") {
		t.Fatal("trigger suppressed")
	}
	if _, err := r.Capture("manual", ""); !errors.Is(err, ErrCaptureBusy) {
		t.Fatalf("Capture during in-flight capture = %v, want ErrCaptureBusy", err)
	}
}

// TestCaptureRingEviction: past Capacity the oldest bundle is evicted,
// newest retained — repeated alerts cannot grow memory without bound.
func TestCaptureRingEviction(t *testing.T) {
	r, _ := testRecorder(t, RecorderConfig{CPUProfile: time.Millisecond, Capacity: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		b, err := r.Capture("manual", "")
		if err != nil {
			t.Fatalf("Capture %d: %v", i, err)
		}
		ids = append(ids, b.ID)
		if got := len(r.Bundles()); got > 2 {
			t.Fatalf("ring holds %d bundles after capture %d, capacity 2", got, i)
		}
	}
	bs := r.Bundles()
	if len(bs) != 2 || bs[0].ID != ids[2] || bs[1].ID != ids[3] {
		t.Fatalf("retained bundles = %v, want [%s %s]", bundleIDs(bs), ids[2], ids[3])
	}

	// An evicted bundle's download URL 404s rather than serving stale data.
	req := httptest.NewRequest(http.MethodGet, "/debug/capture/"+ids[0], nil)
	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusNotFound {
		t.Errorf("GET evicted bundle = %d, want 404", rw.Code)
	}
}

func bundleIDs(bs []*Bundle) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.ID
	}
	return out
}

// TestCloseInterruptsCapture (satellite: concurrent capture vs Close): a
// Close landing mid-capture stops the CPU profile early, keeps the
// partial bundle, returns promptly, and leaks no goroutines.
func TestCloseInterruptsCapture(t *testing.T) {
	before := runtime.NumGoroutine()
	r, _ := testRecorder(t, RecorderConfig{CPUProfile: 30 * time.Second})
	if !r.TriggerAsync("alert:slow", "") {
		t.Fatal("trigger suppressed")
	}
	time.Sleep(20 * time.Millisecond) // let the capture enter its profile window
	start := time.Now()
	r.Close()
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Close took %v against a 30s profile window", d)
	}
	bs := r.Bundles()
	if len(bs) != 1 {
		t.Fatalf("partial bundle not retained: %d bundles", len(bs))
	}
	if len(bs[0].Files["goroutines.txt"]) == 0 {
		t.Error("interrupted bundle lacks a goroutine dump")
	}

	// Closed recorder refuses everything, idempotently.
	if r.TriggerAsync("alert:slow", "") {
		t.Error("TriggerAsync succeeded after Close")
	}
	if _, err := r.Capture("manual", ""); !errors.Is(err, ErrRecorderClosed) {
		t.Errorf("Capture after Close = %v, want ErrRecorderClosed", err)
	}
	r.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across capture+Close: %d -> %d", before, after)
	}
}

// TestConcurrentCaptureCloseStress races manual captures, async
// triggers, and Close from many goroutines — the invariant is simply no
// panic, no deadlock, and no goroutine left behind.
func TestConcurrentCaptureCloseStress(t *testing.T) {
	before := runtime.NumGoroutine()
	r, _ := testRecorder(t, RecorderConfig{CPUProfile: 5 * time.Millisecond, Capacity: 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				_, _ = r.Capture("manual", "stress")
				r.TriggerAsync("alert:stress", "")
			}
		}()
	}
	time.Sleep(15 * time.Millisecond)
	r.Close()
	wg.Wait()
	if got := len(r.Bundles()); got > 2 {
		t.Errorf("ring exceeded capacity under stress: %d", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked under stress: %d -> %d", before, after)
	}
}

// TestRecorderHandler drives every /debug/capture route.
func TestRecorderHandler(t *testing.T) {
	r, _ := testRecorder(t, RecorderConfig{CPUProfile: time.Millisecond})
	h := r.Handler()

	get := func(path string) (*httptest.ResponseRecorder, []byte) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		return rw, rw.Body.Bytes()
	}

	// Empty index parses with an explicit empty list (not null).
	rw, body := get("/debug/capture")
	if rw.Code != http.StatusOK {
		t.Fatalf("GET index = %d", rw.Code)
	}
	var idx struct {
		Bundles []struct {
			ID      string         `json:"id"`
			Trigger string         `json:"trigger"`
			Note    string         `json:"note"`
			Files   map[string]int `json:"files"`
		} `json:"bundles"`
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("empty index unparseable: %v\n%s", err, body)
	}
	if idx.Bundles == nil || len(idx.Bundles) != 0 {
		t.Fatalf("empty index = %+v, want []", idx.Bundles)
	}

	// POST records a bundle and echoes its metadata.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/debug/capture?note=drill", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("POST = %d\n%s", rw.Code, rw.Body.String())
	}
	var posted struct {
		ID    string         `json:"id"`
		Note  string         `json:"note"`
		Files map[string]int `json:"files"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &posted); err != nil {
		t.Fatalf("POST response unparseable: %v", err)
	}
	if posted.Note != "drill" || posted.Files["goroutines.txt"] == 0 {
		t.Errorf("POST response = %+v", posted)
	}

	// Index now lists it; per-bundle metadata and file download round-trip.
	_, body = get("/debug/capture")
	if err := json.Unmarshal(body, &idx); err != nil || len(idx.Bundles) != 1 {
		t.Fatalf("index after POST: err=%v bundles=%d", err, len(idx.Bundles))
	}
	if idx.Bundles[0].Trigger != "manual" {
		t.Errorf("trigger = %q, want manual", idx.Bundles[0].Trigger)
	}
	rw, _ = get("/debug/capture/" + posted.ID)
	if rw.Code != http.StatusOK {
		t.Errorf("GET bundle metadata = %d", rw.Code)
	}
	rw, body = get("/debug/capture/" + posted.ID + "/goroutines.txt")
	if rw.Code != http.StatusOK || len(body) == 0 {
		t.Errorf("GET goroutines.txt = %d, %d bytes", rw.Code, len(body))
	}
	if ct := rw.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("goroutines.txt content-type = %q", ct)
	}

	// 404s: unknown bundle, unknown file.
	if rw, _ = get("/debug/capture/nope"); rw.Code != http.StatusNotFound {
		t.Errorf("GET unknown bundle = %d, want 404", rw.Code)
	}
	if rw, _ = get("/debug/capture/" + posted.ID + "/nope.bin"); rw.Code != http.StatusNotFound {
		t.Errorf("GET unknown file = %d, want 404", rw.Code)
	}

	// 503 after Close.
	r.Close()
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/debug/capture", nil))
	if rw.Code != http.StatusServiceUnavailable {
		t.Errorf("POST after Close = %d, want 503", rw.Code)
	}
}

// TestRecorderOffPathZeroGoroutines pins the acceptance contract: with
// -metrics-addr unset nothing profiles — construction starts no
// goroutines, and the nil recorder (what the disabled stack holds) is
// inert on every method.
func TestRecorderOffPathZeroGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	r, _ := testRecorder(t, RecorderConfig{})
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("NewRecorder started %d goroutines, want 0", after-before)
	}
	_ = r

	var nilRec *Recorder
	if nilRec.TriggerAsync("alert:x", "") {
		t.Error("nil TriggerAsync returned true")
	}
	if _, err := nilRec.Capture("manual", ""); !errors.Is(err, ErrRecorderClosed) {
		t.Errorf("nil Capture = %v, want ErrRecorderClosed", err)
	}
	if nilRec.Bundles() != nil {
		t.Error("nil Bundles returned non-nil")
	}
	nilRec.Close()
}
