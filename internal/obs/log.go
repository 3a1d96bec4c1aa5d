package obs

// Structured, leveled event logging correlated with the active trace.
//
// A Logger is a *slog.Logger whose handler does two things with every
// record: it keeps it in a bounded ring served at /debug/events,
// NetLogger-style — a monotonic sequence number, the level, the dotted
// event name (the record's message), the key=value fields, and, when the
// context carries a span, the active trace and span IDs, so an event can be
// joined against /debug/traces and against the other hosts' logs sharing
// the trace — and it hands it to slog's own text or JSON handler for the
// stderr line, with the trace stamped as trace_id=/span_id= (hex).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one recorded log event.
type Event struct {
	// Seq is a per-logger monotonic sequence number (gap-free while the
	// process lives; readers use it to detect ring overwrites).
	Seq uint64 `json:"seq"`
	// Time is the event timestamp.
	Time time.Time `json:"time"`
	// Level is the severity, lowercase ("debug", "info", "warn", "error").
	Level string `json:"level"`
	// Name is the dotted event name ("ibp.serve", "lors.failover", ...).
	// Canonical names are declared in names.go next to the metrics.
	Name string `json:"event"`
	// TraceID/SpanID tie the event to the active span, zero when the
	// context carried none.
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
	// Fields are the event's key=value pairs, in call order, each value
	// rendered as a string.
	Fields []Field `json:"fields,omitempty"`
}

// Field is one ordered key=value pair of an event.
type Field struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Logger is a leveled, trace-correlated event log: log with its embedded
// *slog.Logger's InfoContext/WarnContext/..., the record's message being
// the event name. Use NewLogger or DefaultLogger.
type Logger struct {
	*slog.Logger
	// Level is the minimum recorded level (default info).
	Level slog.LevelVar
	json  atomic.Bool // line format: slog's JSON handler instead of its text one

	mu   sync.Mutex
	seq  uint64
	ring []Event
	pos  int
	n    int
}

// NewLogger builds a logger writing lines to w (nil silences line output;
// the ring still fills) retaining up to capacity events (default 1024).
func NewLogger(w io.Writer, capacity int) *Logger {
	if capacity <= 0 {
		capacity = 1024
	}
	if w == nil {
		w = io.Discard
	}
	l := &Logger{ring: make([]Event, capacity)}
	l.Logger = slog.New(&handler{l: l, text: slog.NewTextHandler(w, nil), json: slog.NewJSONHandler(w, nil)})
	return l
}

var (
	defLoggerOnce sync.Once
	defLogger     *Logger
)

// DefaultLogger returns the process-wide logger (stderr, 1024-event
// ring), the one -metrics-addr endpoints expose at /debug/events.
func DefaultLogger() *Logger {
	defLoggerOnce.Do(func() { defLogger = NewLogger(os.Stderr, 1024) })
	return defLogger
}

// ConfigureDefaultLogger applies the -log-level (any spelling
// slog.Level.UnmarshalText accepts: debug, info, warn, error, any case)
// and -log-format (kv or json) flag values to the process-wide logger.
func ConfigureDefaultLogger(level, format string) error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", level)
	}
	if format != "kv" && format != "json" {
		return fmt.Errorf("obs: unknown log format %q (want kv|json)", format)
	}
	l := DefaultLogger()
	l.Level.Set(lv)
	l.json.Store(format == "json")
	return nil
}

// handler is a Logger's slog.Handler. Derived handlers (WithAttrs,
// WithGroup) share the logger's ring, level and format.
type handler struct {
	l          *Logger
	text, json slog.Handler
	fields     []Field // WithAttrs attributes, keys group-qualified
	group      string  // WithGroup qualifier for the ring's keys: "a.b."
}

func (h *handler) Enabled(_ context.Context, lv slog.Level) bool {
	return lv >= h.l.Level.Level()
}

func (h *handler) Handle(ctx context.Context, r slog.Record) error {
	ev := Event{Time: r.Time, Level: strings.ToLower(r.Level.String()), Name: r.Message}
	ev.Fields = append(ev.Fields, h.fields...)
	r.Attrs(func(a slog.Attr) bool {
		ev.Fields = appendField(ev.Fields, h.group, a)
		return true
	})
	if tc, ok := ContextFrom(ctx); ok {
		ev.TraceID, ev.SpanID = tc.TraceID, tc.SpanID
		r = r.Clone()
		r.AddAttrs(slog.String("trace_id", strconv.FormatUint(tc.TraceID, 16)),
			slog.String("span_id", strconv.FormatUint(tc.SpanID, 16)))
	}
	l := h.l
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	l.ring[l.pos] = ev
	l.pos = (l.pos + 1) % len(l.ring)
	l.n = min(l.n+1, len(l.ring))
	l.mu.Unlock()
	if l.json.Load() {
		return h.json.Handle(ctx, r)
	}
	return h.text.Handle(ctx, r)
}

func (h *handler) WithAttrs(as []slog.Attr) slog.Handler {
	c := *h
	c.text, c.json = h.text.WithAttrs(as), h.json.WithAttrs(as)
	c.fields = slices.Clip(h.fields)
	for _, a := range as {
		c.fields = appendField(c.fields, h.group, a)
	}
	return &c
}

func (h *handler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	c := *h
	c.text, c.json = h.text.WithGroup(name), h.json.WithGroup(name)
	c.group += name + "."
	return &c
}

// appendField flattens one attribute into the ring's string fields, a
// group's members qualified by its key.
func appendField(fs []Field, prefix string, a slog.Attr) []Field {
	v := a.Value.Resolve()
	if v.Kind() != slog.KindGroup {
		return append(fs, Field{Key: prefix + a.Key, Value: v.String()})
	}
	if a.Key != "" {
		prefix += a.Key + "."
	}
	for _, g := range v.Group() {
		fs = appendField(fs, prefix, g)
	}
	return fs
}

// Events returns the retained events, oldest first.
func (l *Logger) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	start := l.pos - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	return out
}

// EventsHandler serves the event ring as JSON, oldest first. The optional
// ?trace=<hex trace id> query filters to events of one trace.
func (l *Logger) EventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		events := l.Events()
		if v := r.URL.Query().Get("trace"); v != "" {
			id, err := strconv.ParseUint(v, 16, 64)
			if err != nil {
				http.Error(w, "bad trace id (want hex)", http.StatusBadRequest)
				return
			}
			kept := events[:0]
			for _, ev := range events {
				if ev.TraceID == id {
					kept = append(kept, ev)
				}
			}
			events = kept
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events)
	})
}
