package edge

import (
	"context"
	"fmt"
	"net"
	"strconv"

	"lonviz/internal/obs"
	"lonviz/internal/overload"
	"lonviz/internal/wire"
)

// Wire limits mirror the IBP protocol the edge speaks a subset of.
const (
	maxLineLen  = 4096
	maxTransfer = 64 << 20
)

// Wire error codes (the IBP client maps these back to its typed errors,
// so BUSY becomes ibp.ErrBusy and lors fails over to an origin replica
// without a health penalty).
const (
	codeNoCap    = "NOCAP"
	codeProto    = "PROTO"
	codeBusy     = "BUSY"
	codeInternal = "INTERNAL"
)

// Server exposes a Cache over the IBP LOAD/STATUS wire subset. A client
// agent holding a rewritten exNode talks to it exactly as it would to a
// depot: `LOAD <composite-cap> <offset> <length>` answered with
// `OK <len>` plus payload, errors answered with the IBP error line so the
// unmodified lors failover path handles edge outages by falling back to
// the origin replicas. It speaks the same PIPELINE upgrade as depots, so
// one agent connection can stream a whole view set of stripes without
// per-stripe round trips.
type Server struct {
	Cache *Cache
	// PipelineWindow caps the in-flight window granted to clients that
	// negotiate the IBP PIPELINE verb. 0 means ibp.DefaultPipelineWindow;
	// negative disables pipelining.
	PipelineWindow int
	// Admission bounds concurrent request execution like the depot's gate:
	// past the limit, requests shed with ERR BUSY and lors retries the
	// origin replica. nil admits everything but still sheds requests whose
	// propagated deadline budget is exhausted.
	Admission *overload.Gate
	// Logf logs server events; nil disables logging.
	Logf func(format string, args ...interface{})
	// Obs receives the edge.* serve metrics; nil records into obs.Default().
	Obs *obs.Registry
	// Tracer receives server-side spans for traced requests; nil records
	// into obs.DefaultTracer().
	Tracer *obs.Tracer

	loop *wire.Server
}

// NewServer wraps a cache.
func NewServer(c *Cache) *Server {
	s := &Server{Cache: c}
	s.loop = wire.NewServer(wire.Service{
		Names: wire.Names{
			Component: "edge",
			Span:      obs.SpanEdgeServe,
			OpMs:      obs.MEdgeServeMs,
			Shed:      obs.MEdgeShed,
		},
		// The edge is read-only: ALLOCATE/STORE/etc. belong on depots.
		Verbs: map[string]wire.Verb{
			"LOAD":     {Handle: s.doLoad},
			"STATUS":   {Handle: s.doStatus},
			"PIPELINE": wire.Pipeline,
		},
		LineCap: maxLineLen,
		Tokens:  true,
		Busy:    func(reason string) string { return errLine(codeBusy, reason) },
		Refuse:  func(msg string) string { return errLine(codeProto, msg) },
	}, func() wire.Settings {
		return wire.Settings{PipelineWindow: s.PipelineWindow, Admission: s.Admission,
			Logf: s.Logf, Obs: s.Obs, Tracer: s.Tracer}
	})
	return s
}

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) error { return s.loop.Serve(l) }

// ListenAndServe listens on addr and serves in a new goroutine, returning
// the bound address (useful with ":0").
func (s *Server) ListenAndServe(addr string) (string, error) { return s.loop.ListenAndServe(addr) }

// Close stops the listener and closes active connections.
func (s *Server) Close() error { return s.loop.Close() }

func errLine(code, msg string) string { return "ERR " + code + " " + wire.OneLine(msg) }

// refuse answers a malformed request, which is protocol-fatal.
func refuse(r *wire.Reply, msg string) bool {
	r.Line(errLine(codeProto, msg))
	return false
}

func (s *Server) doLoad(ctx context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 4 {
		return refuse(r, "LOAD wants 3 args")
	}
	offset, err1 := strconv.ParseInt(f[2], 10, 64)
	length, err2 := strconv.ParseInt(f[3], 10, 64)
	if err1 != nil || err2 != nil || length < 0 || length > maxTransfer {
		return refuse(r, "bad LOAD numbers")
	}
	cp, ok := ParseCap(f[1])
	if !ok {
		r.Line(errLine(codeNoCap, "not an edge composite capability"))
		return true
	}
	data, _, err := s.Cache.Load(ctx, cp, offset, length)
	if err != nil {
		r.Line(errLine(codeInternal, "fill: "+err.Error()))
		return true
	}
	// The body is the cached entry itself (immutable once published),
	// written straight to the socket with no intermediate buffer.
	fmt.Fprintf(r, "OK %d\n", len(data))
	r.Body(data)
	return true
}

func (s *Server) doStatus(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	if len(req.Fields) != 1 {
		return refuse(r, "STATUS wants no args")
	}
	st := s.Cache.Stats()
	fmt.Fprintf(r, "OK %d %d %d\n", st.Capacity, st.Used, st.Entries)
	return true
}
