package prof

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"lonviz/internal/obs"
)

// tsdbWindow is how far back a bundle's tsdb.json reaches.
const tsdbWindow = 5 * time.Minute

// RecorderConfig configures NewRecorder.
type RecorderConfig struct {
	// Registry receives the capture.* counters; nil means obs.Default().
	Registry *obs.Registry
	// Tracer's recent span ring is snapshotted into spans.json; nil means
	// obs.DefaultTracer().
	Tracer *obs.Tracer
	// Logger's event ring is snapshotted into events.json (and receives
	// the capture.bundle event); nil means obs.DefaultLogger().
	Logger *obs.Logger
	// TSDB's retained window is snapshotted into tsdb.json (nil skips it).
	TSDB *obs.TSDB
	// CPUProfile is how long the labeled CPU profile records (default 2s).
	CPUProfile time.Duration
	// Cooldown is the minimum spacing between captures: alert triggers
	// inside it are suppressed, so a flapping alert cannot thrash the
	// process with back-to-back profiles (default 2m).
	Cooldown time.Duration
	// Capacity bounds the in-memory bundle ring; the oldest bundle is
	// evicted when a new one lands (default 4).
	Capacity int
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// Bundle is one forensic capture: everything an engineer would have
// pulled by hand had they been attached when the alert fired.
type Bundle struct {
	// ID names the bundle in the /debug/capture index and download URLs.
	ID string `json:"id"`
	// Time is when the capture started.
	Time time.Time `json:"time"`
	// Trigger records what started it: "alert:<rule>" or "manual".
	Trigger string `json:"trigger"`
	// Note carries the alert reason (or the manual caller's note).
	Note string `json:"note,omitempty"`
	// Files maps file name to contents: cpu.pprof, heap.pprof,
	// goroutines.txt (debug=1, includes pprof labels), mutex.pprof,
	// block.pprof, spans.json, events.json, tsdb.json. A file that failed to record is replaced by
	// an entry in errors.txt rather than failing the bundle.
	Files map[string][]byte `json:"-"`
}

// bundleInfo is the JSON shape of one bundle in the index (file sizes
// instead of contents).
type bundleInfo struct {
	ID      string         `json:"id"`
	Time    time.Time      `json:"time"`
	Trigger string         `json:"trigger"`
	Note    string         `json:"note,omitempty"`
	Files   map[string]int `json:"files"`
}

// ErrCaptureBusy reports a capture already in flight.
var ErrCaptureBusy = errors.New("prof: capture already in flight")

// ErrRecorderClosed reports a capture attempted after Close.
var ErrRecorderClosed = errors.New("prof: recorder closed")

// Recorder is the flight recorder: a bounded in-memory ring of forensic
// bundles, recorded automatically when a critical SLO alert fires
// (slo.Start subscribes TriggerAsync next to steward.AlertTrigger) or
// manually via POST /debug/capture. All methods are safe for concurrent
// use and on a nil receiver (the -metrics-addr-off path holds none).
type Recorder struct {
	cfg RecorderConfig

	mu      sync.Mutex
	bundles []*Bundle // oldest first
	last    time.Time // start time of the most recent capture
	busy    bool
	closed  bool
	seq     int
	stop    chan struct{}
	wg      sync.WaitGroup
}

// NewRecorder builds a recorder. It starts no goroutines until a capture
// triggers.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DefaultLogger()
	}
	if cfg.CPUProfile <= 0 {
		cfg.CPUProfile = 2 * time.Second
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Minute
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Recorder{cfg: cfg, stop: make(chan struct{})}
}

// TriggerAsync starts a capture on its own goroutine, returning
// immediately — the path the SLO engine's subscriber callback takes
// (callbacks must not block, and a capture takes CPUProfile seconds).
// Triggers inside the cooldown, during an in-flight capture, or after
// Close are suppressed (counted in capture.suppressed) and return false.
func (r *Recorder) TriggerAsync(trigger, note string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	now := r.cfg.Clock()
	if r.closed || r.busy || (!r.last.IsZero() && now.Sub(r.last) < r.cfg.Cooldown) {
		r.mu.Unlock()
		r.cfg.Registry.Counter(obs.MCaptureSuppressed).Inc()
		return false
	}
	r.busy = true
	r.last = now
	r.seq++
	id := r.bundleID(now)
	r.wg.Add(1)
	r.mu.Unlock()

	go func() {
		defer r.wg.Done()
		b := r.record(id, now, trigger, note)
		r.finish(b, "alert")
	}()
	return true
}

// Capture records a bundle synchronously — the POST /debug/capture path.
// It bypasses the cooldown (a human asked) but still refuses while
// another capture is in flight.
func (r *Recorder) Capture(trigger, note string) (*Bundle, error) {
	if r == nil {
		return nil, ErrRecorderClosed
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrRecorderClosed
	}
	if r.busy {
		r.mu.Unlock()
		r.cfg.Registry.Counter(obs.MCaptureSuppressed).Inc()
		return nil, ErrCaptureBusy
	}
	now := r.cfg.Clock()
	r.busy = true
	r.last = now
	r.seq++
	id := r.bundleID(now)
	r.wg.Add(1)
	r.mu.Unlock()

	defer r.wg.Done()
	b := r.record(id, now, trigger, note)
	r.finish(b, "manual")
	return b, nil
}

// bundleID names a bundle. Caller holds r.mu (seq was just advanced).
func (r *Recorder) bundleID(now time.Time) string {
	return fmt.Sprintf("c%03d-%s", r.seq, now.UTC().Format("20060102T150405"))
}

// finish lands a recorded bundle in the ring (evicting the oldest past
// Capacity), clears the busy latch, and accounts the capture.
func (r *Recorder) finish(b *Bundle, kind string) {
	r.mu.Lock()
	r.bundles = append(r.bundles, b)
	for len(r.bundles) > r.cfg.Capacity {
		r.bundles = r.bundles[1:]
	}
	r.busy = false
	r.mu.Unlock()

	total := 0
	for _, f := range b.Files {
		total += len(f)
	}
	r.cfg.Registry.Counter(obs.Label(obs.MCaptureBundles, "trigger", kind)).Inc()
	r.cfg.Logger.Info(obs.EvCaptureBundle,
		"id", b.ID, "trigger", b.Trigger, "files", len(b.Files), "bytes", total)
}

// record performs the capture itself. It runs outside r.mu (a capture
// takes CPUProfile seconds); the busy latch guarantees one at a time.
// Individual snapshot failures land in errors.txt instead of failing
// the bundle — partial forensics beat none.
func (r *Recorder) record(id string, now time.Time, trigger, note string) *Bundle {
	b := &Bundle{ID: id, Time: now, Trigger: trigger, Note: note, Files: make(map[string][]byte)}
	var errs bytes.Buffer

	// Labeled CPU profile first: it must observe the pathology while the
	// alert is still hot. StartCPUProfile fails if a profile is already
	// running (e.g. an operator on /debug/pprof/profile) — record why and
	// keep the rest of the bundle.
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		fmt.Fprintf(&errs, "cpu.pprof: %v\n", err)
	} else {
		select {
		case <-time.After(r.cfg.CPUProfile):
		case <-r.stop:
			// Shutdown mid-capture: stop profiling now and keep whatever
			// was recorded, so Close never waits the full window.
		}
		pprof.StopCPUProfile()
		b.Files["cpu.pprof"] = cpu.Bytes()
	}

	snap := func(name, profile string, debug int) {
		p := pprof.Lookup(profile)
		if p == nil {
			fmt.Fprintf(&errs, "%s: no %s profile\n", name, profile)
			return
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, debug); err != nil {
			fmt.Fprintf(&errs, "%s: %v\n", name, err)
			return
		}
		b.Files[name] = buf.Bytes()
	}
	snap("heap.pprof", "heap", 0)
	// debug=1 renders text with the goroutines' pprof labels inline —
	// the "what was every request doing" view of the incident.
	snap("goroutines.txt", "goroutine", 1)
	snap("mutex.pprof", "mutex", 0)
	snap("block.pprof", "block", 0)

	if data, err := json.MarshalIndent(r.cfg.Tracer.Export(0), "", " "); err == nil {
		b.Files["spans.json"] = data
	} else {
		fmt.Fprintf(&errs, "spans.json: %v\n", err)
	}
	if data, err := json.MarshalIndent(r.cfg.Logger.Events(), "", " "); err == nil {
		b.Files["events.json"] = data
	} else {
		fmt.Fprintf(&errs, "events.json: %v\n", err)
	}
	if db := r.cfg.TSDB; db != nil {
		window := map[string][]obs.Point{}
		since := r.cfg.Clock().Add(-tsdbWindow)
		for _, name := range db.Names() {
			if pts := db.Points(name, since); len(pts) > 0 {
				window[name] = pts
			}
		}
		if data, err := json.MarshalIndent(window, "", " "); err == nil {
			b.Files["tsdb.json"] = data
		} else {
			fmt.Fprintf(&errs, "tsdb.json: %v\n", err)
		}
	}
	if errs.Len() > 0 {
		b.Files["errors.txt"] = errs.Bytes()
	}
	return b
}

// Bundles returns the retained bundles, oldest first.
func (r *Recorder) Bundles() []*Bundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Bundle(nil), r.bundles...)
}

// Close interrupts any in-flight capture (its CPU profile stops early
// and the partial bundle still lands) and waits for it to finish.
// Idempotent; after Close every trigger is refused.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.stop)
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// Handler serves the capture ring:
//
//	GET  /debug/capture            index of retained bundles (JSON)
//	POST /debug/capture            record a bundle now (blocks; 409 if busy)
//	GET  /debug/capture/<id>       one bundle's metadata (JSON)
//	GET  /debug/capture/<id>/<file> raw file download
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rest := strings.TrimPrefix(req.URL.Path, "/debug/capture")
		rest = strings.Trim(rest, "/")
		if rest == "" {
			if req.Method == http.MethodPost {
				r.servePost(w, req)
				return
			}
			r.serveIndex(w)
			return
		}
		id, file, _ := strings.Cut(rest, "/")
		var bundle *Bundle
		for _, b := range r.Bundles() {
			if b.ID == id {
				bundle = b
				break
			}
		}
		if bundle == nil {
			http.Error(w, "no such bundle (it may have been evicted)", http.StatusNotFound)
			return
		}
		if file == "" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(bundleIndexEntry(bundle))
			return
		}
		data, ok := bundle.Files[file]
		if !ok {
			http.Error(w, "no such file in bundle", http.StatusNotFound)
			return
		}
		if strings.HasSuffix(file, ".json") {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
		} else if strings.HasSuffix(file, ".txt") {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		_, _ = w.Write(data)
	})
}

func bundleIndexEntry(b *Bundle) bundleInfo {
	info := bundleInfo{ID: b.ID, Time: b.Time, Trigger: b.Trigger, Note: b.Note, Files: make(map[string]int, len(b.Files))}
	for name, data := range b.Files {
		info.Files[name] = len(data)
	}
	return info
}

// captureIndex is the JSON shape of GET /debug/capture.
type captureIndex struct {
	Bundles []bundleInfo `json:"bundles"`
}

func (r *Recorder) serveIndex(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	idx := captureIndex{Bundles: []bundleInfo{}}
	for _, b := range r.Bundles() {
		idx.Bundles = append(idx.Bundles, bundleIndexEntry(b))
	}
	// Newest first: the bundle an operator wants is almost always the
	// latest one.
	sort.Slice(idx.Bundles, func(i, j int) bool { return idx.Bundles[i].Time.After(idx.Bundles[j].Time) })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(idx)
}

func (r *Recorder) servePost(w http.ResponseWriter, req *http.Request) {
	note := req.URL.Query().Get("note")
	b, err := r.Capture("manual", note)
	switch {
	case errors.Is(err, ErrCaptureBusy):
		http.Error(w, err.Error(), http.StatusConflict)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(bundleIndexEntry(b))
}
