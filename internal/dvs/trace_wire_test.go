package dvs

import (
	"context"
	"testing"

	"lonviz/internal/obs"
)

// TestDVSTracePropagation checks the DVS half of the tentpole: GET/PUT
// lines carry the trailing trace= token and the directory's server-side
// span is parented under the calling client span, sharing its trace ID.
func TestDVSTracePropagation(t *testing.T) {
	obs.SetPropagation(true)
	defer obs.SetPropagation(false)

	serverTracer := obs.NewTracer(64)
	_, cl := startDVS(t, "", func(s *Server) { s.Tracer = serverTracer })

	clientTracer := obs.NewTracer(64)
	ctx, span := clientTracer.StartSpan(context.Background(), "test.client")
	key := Key{Dataset: "neghip", ViewSet: "r01c02"}
	if err := cl.Put(ctx, key, []byte("<exnode/>")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	span.Finish()

	recs := serverTracer.Export(span.TraceID)
	if len(recs) != 2 {
		t.Fatalf("server spans in trace %x = %d, want 2 (PUT+GET): %+v",
			span.TraceID, len(recs), recs)
	}
	ops := map[string]bool{}
	for _, r := range recs {
		if r.Name != obs.SpanDVSServe {
			t.Errorf("server span name = %q, want %q", r.Name, obs.SpanDVSServe)
		}
		if r.TraceID != span.TraceID || r.ParentID != span.ID || !r.Remote {
			t.Errorf("span trace=%x parent=%x remote=%v, want %x/%x/true",
				r.TraceID, r.ParentID, r.Remote, span.TraceID, span.ID)
		}
		ops[r.Attrs["op"]] = true
	}
	if !ops["PUT"] || !ops["GET"] {
		t.Errorf("server span ops = %v, want PUT and GET", ops)
	}
}

// TestDVSTokenlessBackwardCompat: with propagation off (the default) the
// client writes pre-tracing request lines, the server parses them as
// before and records no spans.
func TestDVSTokenlessBackwardCompat(t *testing.T) {
	if obs.PropagationEnabled() {
		t.Fatal("propagation unexpectedly on at test start")
	}
	serverTracer := obs.NewTracer(64)
	_, cl := startDVS(t, "", func(s *Server) { s.Tracer = serverTracer })

	ctx, span := obs.NewTracer(64).StartSpan(context.Background(), "test.client")
	key := Key{Dataset: "neghip", ViewSet: "r03c04"}
	if err := cl.Put(ctx, key, []byte("<exnode/>")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	span.Finish()
	if got := serverTracer.Completed(); len(got) != 0 {
		t.Errorf("server recorded %d spans with propagation off", len(got))
	}
}

// TestDVSHierarchyTracePropagation: a miss at a leaf recurses to its
// parent; the upstream query must re-propagate the same trace so both
// directory levels appear in one tree.
func TestDVSHierarchyTracePropagation(t *testing.T) {
	obs.SetPropagation(true)
	defer obs.SetPropagation(false)

	rootTracer, leafTracer := obs.NewTracer(64), obs.NewTracer(64)
	_, rootCl := startDVS(t, "", func(s *Server) { s.Tracer = rootTracer })
	_, leafCl := startDVS(t, rootCl.Addr, func(s *Server) { s.Tracer = leafTracer })

	key := Key{Dataset: "neghip", ViewSet: "r05c06"}
	if err := rootCl.Put(context.Background(), key, []byte("<exnode/>")); err != nil {
		t.Fatal(err)
	}

	ctx, span := obs.NewTracer(64).StartSpan(context.Background(), "test.client")
	if _, err := leafCl.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	span.Finish()

	rootRecs := rootTracer.Export(span.TraceID)
	if len(rootRecs) != 1 {
		t.Fatalf("root-level spans in client trace = %d, want 1 (recursed GET)", len(rootRecs))
	}
	if rootRecs[0].ParentID == span.ID {
		t.Error("root span parented directly under the client; want the leaf's serve span in between")
	}
	leafRecs := leafTracer.Export(span.TraceID)
	if len(leafRecs) != 1 || leafRecs[0].ParentID != span.ID {
		t.Fatalf("leaf spans = %+v, want one parented under client span %x", leafRecs, span.ID)
	}
	if rootRecs[0].ParentID != leafRecs[0].ID {
		t.Errorf("root span parent = %x, want leaf serve span %x", rootRecs[0].ParentID, leafRecs[0].ID)
	}
}
