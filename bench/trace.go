package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval the harness saw at a layer boundary. Times
// are microseconds since the pass's measured phase began; Trace is the
// op index the span belongs to (−1: no op was open, i.e. background work
// during think time).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// maxSpans bounds what one pass keeps, so a fast workload cannot grow the
// trace file without limit; spans beyond it are counted, not stored.
const maxSpans = 200_000

// recorder collects spans in memory during a traced pass. A nil recorder
// is an untraced pass: every method is then a no-op, so call sites need
// no branches.
type recorder struct {
	nextID atomic.Int64

	mu       sync.Mutex
	t0       time.Time
	spans    []span
	dropped  int
	requests map[string]int // IBP requests the metered conns sent, by "VERB <bytes>"
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), requests: make(map[string]int)} }

func (r *recorder) request(key string) {
	r.mu.Lock()
	r.requests[key]++
	r.mu.Unlock()
}

// restart moves the time origin to the start of the measured phase and
// forgets the requests set-up and verification sent.
func (r *recorder) restart(t0 time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.t0 = t0
	r.requests = make(map[string]int)
	r.mu.Unlock()
}

// take returns what was recorded; background transfers may still be
// adding spans, so it copies under the lock.
func (r *recorder) take() ([]span, int, map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	requests := make(map[string]int, len(r.requests))
	for k, n := range r.requests {
		requests[k] = n
	}
	return append([]span(nil), r.spans...), r.dropped, requests
}

// open reserves a span id so children can name their parent before the
// span itself is closed.
func (r *recorder) open() int {
	if r == nil {
		return 0
	}
	return int(r.nextID.Add(1))
}

func (r *recorder) close(id, parent, trace int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: float64(start.Sub(r.t0)) / 1e3, End: float64(end.Sub(r.t0)) / 1e3,
	})
}

// scope is where spans from wrappers that have no call context (a client's
// dialer and conns) attach: the innermost span that client's op loop has
// open. A client runs one op at a time, so there is at most one; transfers
// its agent runs in the background (prefetch, staging) land in it by time
// overlap, which is all a wrapper outside the program can know. The zero
// scope and a nil scope mean "no op open": trace −1.
type scope struct {
	mu            sync.Mutex
	open          bool
	since         time.Time // when the op opened
	trace, parent int
}

func (sc *scope) set(trace, parent int) {
	sc.mu.Lock()
	if !sc.open {
		sc.since = time.Now()
	}
	sc.open, sc.trace, sc.parent = true, trace, parent
	sc.mu.Unlock()
}

// opStart reports when the open op began. A nil scope has no ops and
// reports the zero time as open, so that its waits count in full.
func (sc *scope) opStart() (time.Time, bool) {
	if sc == nil {
		return time.Time{}, true
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.since, sc.open
}

func (sc *scope) clear() {
	sc.mu.Lock()
	sc.open = false
	sc.mu.Unlock()
}

// leaf records a finished span under sc.
func (r *recorder) leaf(sc *scope, name string, start, end time.Time) {
	if r == nil {
		return
	}
	trace, parent := -1, 0
	if sc != nil {
		sc.mu.Lock()
		if sc.open {
			trace, parent = sc.trace, sc.parent
		}
		sc.mu.Unlock()
	}
	r.close(r.open(), parent, trace, name, start, end)
}

// opSelfMeanMs is the mean, over the op spans (the roots of each trace), of
// the part of the span that none of its children cover.
func opSelfMeanMs(spans []span) float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var total float64
	n := 0
	for _, s := range spans {
		if s.Parent != 0 || s.Trace < 0 {
			continue
		}
		total += s.End - s.Start - covered(s, kids[s.ID])
		n++
	}
	return ratio(total, float64(n)) / 1e3
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum float64
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	Dropped  int    `json:"dropped_spans"`
	// Requests is the IBP traffic of the pass as the metered connections
	// carried it: requests by "VERB <bytes>". depot_mix's mix is set from
	// the browse workloads' readings.
	Requests map[string]int `json:"ibp_requests"`
	Spans    []span         `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+tf.Workload+".json"), data, 0o644)
}
