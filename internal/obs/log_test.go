package obs

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestLoggerLevelsAndRing(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, 4)
	ctx := context.Background()
	l.DebugContext(ctx, "dropped.event") // below default info level
	l.InfoContext(ctx, "kept.one", "k", "v")
	l.WarnContext(ctx, "kept.two")
	l.ErrorContext(ctx, "kept.three")

	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("ring has %d events, want 3: %+v", len(evs), evs)
	}
	if evs[0].Name != "kept.one" || evs[0].Level != "info" {
		t.Errorf("first event = %+v", evs[0])
	}
	if evs[1].Level != "warn" || evs[2].Level != "error" {
		t.Errorf("levels = %q, %q, want warn, error", evs[1].Level, evs[2].Level)
	}
	if len(evs[0].Fields) != 1 || evs[0].Fields[0] != (Field{Key: "k", Value: "v"}) {
		t.Errorf("fields = %+v", evs[0].Fields)
	}
	// Seq is gap-free: the dropped event took no number.
	if evs[0].Seq != 1 || evs[1].Seq != 2 || evs[2].Seq != 3 {
		t.Errorf("seq = %d %d %d, want 1 2 3", evs[0].Seq, evs[1].Seq, evs[2].Seq)
	}
	if !strings.Contains(buf.String(), "msg=kept.one") {
		t.Errorf("text line output missing event: %q", buf.String())
	}

	l.Level.Set(slog.LevelDebug)
	l.DebugContext(ctx, "now.kept")
	if evs := l.Events(); evs[len(evs)-1].Name != "now.kept" || evs[len(evs)-1].Level != "debug" {
		t.Error("debug event dropped after Level.Set(debug)")
	}
}

func TestLoggerRingEviction(t *testing.T) {
	l := NewLogger(nil, 3)
	for i := 0; i < 5; i++ {
		l.Info("ev", "i", i)
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("ring = %d events, want 3", len(evs))
	}
	// Oldest first, holding the 3 newest (2, 3, 4).
	if evs[0].Fields[0].Value != "2" || evs[2].Fields[0].Value != "4" {
		t.Errorf("ring order = %+v", evs)
	}
}

func TestLoggerTraceStamping(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, 8)
	tr := NewTracer(8)
	ctx, span := tr.StartSpan(context.Background(), "x")
	l.InfoContext(ctx, "traced.event")
	l.InfoContext(context.Background(), "untraced.event")
	span.Finish()

	evs := l.Events()
	if evs[0].TraceID != span.TraceID || evs[0].SpanID != span.ID {
		t.Errorf("traced event = %x/%x, want %x/%x", evs[0].TraceID, evs[0].SpanID, span.TraceID, span.ID)
	}
	if evs[1].TraceID != 0 || evs[1].SpanID != 0 {
		t.Errorf("untraced event stamped %x/%x", evs[1].TraceID, evs[1].SpanID)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := "trace_id=" + strings.TrimLeft(traceHex(span.TraceID), "0") + " span_id=" + strings.TrimLeft(traceHex(span.ID), "0")
	if len(lines) != 2 || !strings.HasSuffix(lines[0], want) || strings.Contains(lines[1], "trace_id=") {
		t.Errorf("lines = %q, want the first ending %q and only the first stamped", lines, want)
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, 8)
	l.json.Store(true)
	l.Info("json.event", "key", "value with spaces", "n", 7, "err", errors.New("boom"))
	var line map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &line); err != nil {
		t.Fatalf("json line does not parse: %v (%q)", err, buf.String())
	}
	if line["msg"] != "json.event" || line["key"] != "value with spaces" || line["n"] != 7.0 || line["err"] != "boom" {
		t.Errorf("decoded line = %+v", line)
	}
	// The ring keeps every value as a string, whatever the line format.
	want := []Field{{"key", "value with spaces"}, {"n", "7"}, {"err", "boom"}}
	if evs := l.Events(); len(evs) != 1 || len(evs[0].Fields) != 3 ||
		evs[0].Fields[0] != want[0] || evs[0].Fields[1] != want[1] || evs[0].Fields[2] != want[2] {
		t.Errorf("ring event = %+v, want fields %v", evs, want)
	}
}

func TestLoggerKVQuoting(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, 8)
	l.Info("q.event", "note", "has spaces", "plain", "bare")
	line := buf.String()
	if !strings.Contains(line, `note="has spaces"`) {
		t.Errorf("kv line did not quote spaced value: %q", line)
	}
	if !strings.Contains(line, "plain=bare") {
		t.Errorf("kv line quoted a bare value: %q", line)
	}
}

// TestNilLoggerInert: a logger built without a writer prints nothing and
// still fills its ring.
func TestNilLoggerInert(t *testing.T) {
	l := NewLogger(nil, 2)
	l.Info("nothing")
	l.Error("nothing")
	if evs := l.Events(); len(evs) != 2 {
		t.Errorf("writerless logger events = %v, want 2", evs)
	}
}

func TestLoggerWithAttrsAndGroup(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, 8)
	l.With("svc", "ibp").WithGroup("req").Info("grouped", "op", "LOAD", slog.Group("size", "n", 3))
	evs := l.Events()
	want := []Field{{"svc", "ibp"}, {"req.op", "LOAD"}, {"req.size.n", "3"}}
	if len(evs) != 1 || len(evs[0].Fields) != len(want) {
		t.Fatalf("events = %+v, want fields %v", evs, want)
	}
	for i, f := range want {
		if evs[0].Fields[i] != f {
			t.Errorf("field %d = %+v, want %+v", i, evs[0].Fields[i], f)
		}
	}
	if !strings.Contains(buf.String(), "svc=ibp req.op=LOAD req.size.n=3") {
		t.Errorf("text line = %q", buf.String())
	}
}

func TestLoggerHandlerTraceFilter(t *testing.T) {
	l := NewLogger(nil, 8)
	tr := NewTracer(8)
	ctx, span := tr.StartSpan(context.Background(), "x")
	l.InfoContext(ctx, "in.trace")
	l.InfoContext(context.Background(), "outside")
	span.Finish()

	req := httptest.NewRequest("GET", "/debug/events?trace="+
		strings.ToLower(strings.TrimLeft(traceHex(span.TraceID), "0")), nil)
	rr := httptest.NewRecorder()
	l.EventsHandler().ServeHTTP(rr, req)
	var evs []Event
	if err := json.Unmarshal(rr.Body.Bytes(), &evs); err != nil {
		t.Fatalf("handler body: %v", err)
	}
	if len(evs) != 1 || evs[0].Name != "in.trace" {
		t.Errorf("filtered events = %+v, want just in.trace", evs)
	}
	// The ring's JSON keys are the /debug/events contract.
	var raw []map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"seq", "time", "level", "event", "trace_id", "span_id"} {
		if _, ok := raw[0][k]; !ok {
			t.Errorf("/debug/events entry lacks %q: %v", k, raw[0])
		}
	}

	rr = httptest.NewRecorder()
	l.EventsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/events?trace=zzz", nil))
	if rr.Code != 400 {
		t.Errorf("bad trace filter -> HTTP %d, want 400", rr.Code)
	}
}

func traceHex(id uint64) string {
	const digits = "0123456789abcdef"
	buf := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		buf[i] = digits[id&0xf]
		id >>= 4
	}
	return string(buf)
}

func TestConfigureDefaultLogger(t *testing.T) {
	if err := ConfigureDefaultLogger("warn", "json"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ConfigureDefaultLogger("info", "kv") }()
	if lv := DefaultLogger().Level.Level(); lv != slog.LevelWarn || !DefaultLogger().json.Load() {
		t.Errorf("default level = %v, json = %v, want warn, true", lv, DefaultLogger().json.Load())
	}
	for _, lv := range []string{"debug", "info", "error", "ERROR"} {
		if err := ConfigureDefaultLogger(lv, "kv"); err != nil {
			t.Errorf("level %q refused: %v", lv, err)
		}
	}
	if err := ConfigureDefaultLogger("nope", "kv"); err == nil {
		t.Error("bad level accepted")
	}
	if err := ConfigureDefaultLogger("info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
}
