package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startPeer serves a tracer's export like a daemon's /debug/traces.
func startPeer(t *testing.T, tr *Tracer) string {
	t.Helper()
	srv := httptest.NewServer(NewMux(ServeOptions{Registry: NewRegistry(), Tracer: tr}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestCollectorMergesLocalAndPeer(t *testing.T) {
	// "Client" process: root span.
	local := NewTracer(16)
	ctx, root := local.StartSpan(context.Background(), "client.op")

	// "Depot" process: serve span remote-parented under the client's.
	remote := NewTracer(16)
	tc := TraceContext{TraceID: root.TraceID, SpanID: root.ID}
	_, serve := remote.StartSpan(ContextWithRemote(context.Background(), tc), SpanIBPServe)
	serve.SetAttr("op", "LOAD")
	serve.Finish()
	root.Finish()
	_ = ctx

	col := &Collector{Local: local, Peers: []string{startPeer(t, remote)}}
	spans, errs := col.Collect(context.Background(), root.TraceID)
	if len(errs) != 0 {
		t.Fatalf("collect errs: %v", errs)
	}
	if len(spans) != 2 {
		t.Fatalf("collected %d spans, want 2: %+v", len(spans), spans)
	}

	trees := BuildTrees(spans)
	if len(trees) != 1 || trees[0].TraceID != root.TraceID {
		t.Fatalf("trees = %+v, want one tree for %x", trees, root.TraceID)
	}
	var sb strings.Builder
	trees[0].Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "client.op") || !strings.Contains(out, SpanIBPServe) {
		t.Errorf("render missing spans:\n%s", out)
	}
	// The depot half is attributed to its peer and indented under the root.
	if !strings.Contains(out, "@http://") {
		t.Errorf("render missing peer source tag:\n%s", out)
	}
	if !strings.Contains(out, "{op=LOAD}") {
		t.Errorf("render missing attrs:\n%s", out)
	}
}

func TestCollectorSkipsDeadPeer(t *testing.T) {
	local := NewTracer(16)
	_, root := local.StartSpan(context.Background(), "client.op")
	root.Finish()

	col := &Collector{
		Local: local,
		Peers: []string{"127.0.0.1:1"}, // nothing listens here
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	spans, errs := col.Collect(ctx, root.TraceID)
	if len(errs) != 1 {
		t.Errorf("dead peer produced %d errors, want 1", len(errs))
	}
	if len(spans) != 1 {
		t.Errorf("local spans still collected = %d, want 1", len(spans))
	}
}

func TestBuildTreesDedupsAndGroups(t *testing.T) {
	now := time.Now()
	spans := []SpanRecord{
		{ID: 1, TraceID: 1, Name: "a", Start: now},
		{ID: 1, TraceID: 1, Name: "a", Start: now}, // duplicate pull
		{ID: 2, TraceID: 1, ParentID: 1, Name: "b", Start: now.Add(time.Millisecond)},
		{ID: 3, TraceID: 9, Name: "other", Start: now.Add(2 * time.Millisecond)},
		{ID: 4, TraceID: 0, Name: "untraced"}, // dropped
	}
	trees := BuildTrees(spans)
	if len(trees) != 2 {
		t.Fatalf("trees = %d, want 2", len(trees))
	}
	if trees[0].TraceID != 1 || len(trees[0].Spans) != 2 {
		t.Errorf("first tree = %x with %d spans, want trace 1 with 2", trees[0].TraceID, len(trees[0].Spans))
	}
	if trees[1].TraceID != 9 {
		t.Errorf("second tree = %x, want 9", trees[1].TraceID)
	}
}

func TestRenderOrphanSpansSurface(t *testing.T) {
	// A span whose parent lives on an unreachable peer must still render.
	now := time.Now()
	tt := &TraceTree{TraceID: 5, Spans: []SpanRecord{
		{ID: 7, TraceID: 5, ParentID: 99, Name: "orphan.serve", Start: now, DurMs: 1},
	}}
	var sb strings.Builder
	tt.Render(&sb)
	if !strings.Contains(sb.String(), "orphan.serve") {
		t.Errorf("orphan span vanished from render:\n%s", sb.String())
	}
}

func TestTraceTreeDuration(t *testing.T) {
	now := time.Now()
	tt := &TraceTree{TraceID: 1, Spans: []SpanRecord{
		{ID: 1, TraceID: 1, Start: now, DurMs: 10},
		{ID: 2, TraceID: 1, Start: now.Add(5 * time.Millisecond), DurMs: 10},
	}}
	if d := tt.Duration(); d != 15*time.Millisecond {
		t.Errorf("duration = %v, want 15ms", d)
	}
	if d := (&TraceTree{}).Duration(); d != 0 {
		t.Errorf("empty tree duration = %v", d)
	}
}
