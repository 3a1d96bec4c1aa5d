package ibp

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"lonviz/internal/obs"
)

// TestWireTracePropagation proves the tentpole contract at the IBP layer:
// a client-side span's trace context crosses the wire as the trailing
// trace= token, and the depot's server-side span joins the same trace,
// parented under the calling span.
func TestWireTracePropagation(t *testing.T) {
	obs.SetPropagation(true)
	defer obs.SetPropagation(false)

	serverTracer := obs.NewTracer(64)
	_, cl, _ := startDepotServer(t, 1<<20, func(s *Server) { s.Tracer = serverTracer })

	clientTracer := obs.NewTracer(64)
	ctx, span := clientTracer.StartSpan(context.Background(), "test.client")
	caps, err := cl.Allocate(ctx, 100, time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Store(ctx, caps.Write, 0, []byte("traced payload")); err != nil {
		t.Fatal(err)
	}
	span.Finish()

	recs := serverTracer.Export(span.TraceID)
	if len(recs) != 2 {
		t.Fatalf("server spans in trace %x = %d, want 2 (ALLOCATE+STORE): %+v",
			span.TraceID, len(recs), recs)
	}
	ops := map[string]bool{}
	for _, r := range recs {
		if r.Name != obs.SpanIBPServe {
			t.Errorf("server span name = %q, want %q", r.Name, obs.SpanIBPServe)
		}
		if r.TraceID != span.TraceID {
			t.Errorf("server span trace = %x, want client trace %x", r.TraceID, span.TraceID)
		}
		if r.ParentID != span.ID {
			t.Errorf("server span parent = %x, want client span %x", r.ParentID, span.ID)
		}
		if !r.Remote {
			t.Error("server span not marked remote-parented")
		}
		ops[r.Attrs["op"]] = true
	}
	if !ops["ALLOCATE"] || !ops["STORE"] {
		t.Errorf("server span ops = %v, want ALLOCATE and STORE", ops)
	}
}

// TestWireNoTokenWhenPropagationOff asserts the gate: without obs.Serve
// (propagation off), requests carry no trace token and the depot records
// no serve spans, even when the caller has an active span.
func TestWireNoTokenWhenPropagationOff(t *testing.T) {
	if obs.PropagationEnabled() {
		t.Fatal("propagation unexpectedly on at test start")
	}
	serverTracer := obs.NewTracer(64)
	_, cl, _ := startDepotServer(t, 1<<20, func(s *Server) { s.Tracer = serverTracer })

	ctx, span := obs.NewTracer(64).StartSpan(context.Background(), "test.client")
	if _, err := cl.Allocate(ctx, 100, time.Minute, Stable); err != nil {
		t.Fatal(err)
	}
	span.Finish()
	if got := serverTracer.Completed(); len(got) != 0 {
		t.Errorf("server recorded %d spans with propagation off", len(got))
	}
}

// TestWireTokenlessBackwardCompat drives the server with raw pre-tracing
// request lines: a depot that understands trace= must keep serving
// clients that never send it.
func TestWireTokenlessBackwardCompat(t *testing.T) {
	addr, _, _ := startDepotServer(t, 4096)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("STATUS\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n]), "OK ") {
		t.Fatalf("token-less STATUS = %q", buf[:n])
	}
}

// TestWireRawTraceToken speaks the wire format by hand, pinning the
// trailing-token encoding documented in docs/OBSERVABILITY.md: a server
// must parse "VERB ... trace=<tid>/<sid>" and parent its span there.
func TestWireRawTraceToken(t *testing.T) {
	serverTracer := obs.NewTracer(64)
	addr, _, _ := startDepotServer(t, 4096, func(s *Server) { s.Tracer = serverTracer })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("STATUS trace=00000000000000ab/00000000000000cd\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n]), "OK ") {
		t.Fatalf("STATUS with token = %q", buf[:n])
	}
	recs := serverTracer.Export(0xab)
	if len(recs) != 1 {
		t.Fatalf("server spans for trace ab = %d, want 1", len(recs))
	}
	if recs[0].ParentID != 0xcd || !recs[0].Remote {
		t.Errorf("span parent = %x remote=%v, want cd/true", recs[0].ParentID, recs[0].Remote)
	}
}
