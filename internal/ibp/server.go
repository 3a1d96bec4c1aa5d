package ibp

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/obs"
	"lonviz/internal/overload"
	"lonviz/internal/wire"
)

// Server exposes a Depot over the wire protocol.
type Server struct {
	Depot *Depot
	// PipelineWindow caps the in-flight window granted to clients that
	// negotiate pipelined mode with the PIPELINE verb. 0 means
	// DefaultPipelineWindow; negative disables pipelining entirely
	// (PIPELINE answers ERR PROTO and clients fall back to serial
	// one-request-per-connection mode).
	PipelineWindow int
	// Admission bounds concurrent request execution: beyond MaxInFlight
	// running plus MaxQueue waiting, requests are rejected with ERR BUSY
	// so clients fail over to another replica instead of queueing behind
	// an overloaded depot. nil admits everything. Requests arriving with
	// an exhausted deadline= budget are shed regardless (the client has
	// already moved on), so deadline enforcement works with Admission nil.
	Admission *overload.Gate
	// CopyDialer dials target depots for third-party COPY; nil means plain
	// TCP. Third-party transfers are the mechanism behind the paper's
	// aggressive prestaging: "all such LoN operations take place as third
	// party communication without consuming resources on either the client
	// or the client agent".
	CopyDialer Dialer
	// Obs receives per-verb service-time histograms and error counters;
	// nil records into obs.Default().
	Obs *obs.Registry
	// Tracer receives the server-side request spans opened for traced
	// requests (those carrying a trace= token); nil records into
	// obs.DefaultTracer().
	Tracer *obs.Tracer

	loop *wire.Server
}

// NewServer wraps a depot.
func NewServer(d *Depot) *Server {
	s := &Server{Depot: d}
	s.loop = wire.NewServer(wire.Service{
		Names: wire.Names{
			Component:  "ibp",
			Span:       obs.SpanIBPServe,
			ProfClass:  "ibp",
			OpMs:       obs.MIBPServerOpMs,
			ErrEvent:   obs.EvIBPServeErr,
			Shed:       obs.MIBPShed,
			Inflight:   obs.MIBPInflight,
			QueueDepth: obs.MIBPQueueDepth,
		},
		Verbs: map[string]wire.Verb{
			"ALLOCATE": {Handle: s.doAllocate},
			"STORE":    {Handle: s.doStore, Payload: storePayload},
			"LOAD":     {Handle: s.doLoad},
			"PROBE":    {Handle: s.doProbe},
			"EXTEND":   {Handle: s.doExtend},
			"FREE":     {Handle: s.doFree},
			"COPY":     {Handle: s.doCopy},
			"STATUS":   {Handle: s.doStatus},
			"PIPELINE": wire.Pipeline,
		},
		LineCap: maxLineLen,
		Tokens:  true,
		Busy:    func(reason string) string { return errLine(ErrBusy, reason) },
		Refuse:  func(msg string) string { return errLine(ErrProto, msg) },
	}, func() wire.Settings {
		return wire.Settings{PipelineWindow: s.PipelineWindow, Admission: s.Admission,
			Obs: s.Obs, Tracer: s.Tracer}
	})
	return s
}

// Serve accepts connections on l until Close. It returns when the listener
// fails (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error { return s.loop.Serve(l) }

// ListenAndServe listens on addr and serves in a new goroutine, returning
// the bound address (useful with ":0").
func (s *Server) ListenAndServe(addr string) (string, error) { return s.loop.ListenAndServe(addr) }

// Close stops the listener and closes active connections.
func (s *Server) Close() error { return s.loop.Close() }

// errLine renders "ERR <CODE> <message>" for a typed error, kept to one
// line. Codes map 1:1 to the typed errors (codeOf).
func errLine(err error, context string) string {
	msg := err.Error()
	if context != "" {
		msg = context + ": " + msg
	}
	return "ERR " + codeOf(err) + " " + wire.OneLine(msg)
}

// fail answers a command error; the connection stays.
func fail(r *wire.Reply, err error, context string) bool {
	r.Line(errLine(err, context))
	return true
}

// refuse answers a malformed request, which is protocol-fatal.
func refuse(r *wire.Reply, msg string) bool {
	r.Line(errLine(ErrProto, msg))
	return false
}

func (s *Server) doAllocate(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 4 {
		return refuse(r, "ALLOCATE wants 3 args")
	}
	size, err1 := strconv.ParseInt(f[1], 10, 64)
	leaseMs, err2 := strconv.ParseInt(f[2], 10, 64)
	if err1 != nil || err2 != nil {
		return refuse(r, "bad ALLOCATE numbers")
	}
	caps, err := s.Depot.Allocate(size, time.Duration(leaseMs)*time.Millisecond, Policy(f[3]))
	if err != nil {
		return fail(r, err, "")
	}
	fmt.Fprintf(r, "OK %s %s %s\n", caps.Read, caps.Write, caps.Manage)
	return true
}

// storePayload reads a STORE line's payload length. The payload must be
// consumed even if the store will fail, to keep the connection
// synchronized, so a line that does not give one is protocol-fatal.
func storePayload(req *wire.Request, r *wire.Reply) (int, bool) {
	f := req.Fields
	if len(f) != 4 {
		return 0, refuse(r, "STORE wants 3 args")
	}
	_, length, ok := parseExtent(f[2], f[3])
	if !ok {
		return 0, refuse(r, "bad STORE numbers")
	}
	return int(length), true
}

// doStore runs after storePayload accepted the line and the loop read the
// payload into a pooled wire buffer: the depot copies into its backing
// store, so the buffer is free again as soon as this returns.
func (s *Server) doStore(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	offset, _ := strconv.ParseInt(req.Fields[2], 10, 64)
	if err := s.Depot.Store(req.Fields[1], offset, req.Payload); err != nil {
		return fail(r, err, "")
	}
	fmt.Fprintf(r, "OK %d\n", len(req.Payload))
	return true
}

// parseExtent parses the <offset> <len> pair of STORE, LOAD and COPY.
func parseExtent(off, n string) (offset, length int64, ok bool) {
	offset, err1 := strconv.ParseInt(off, 10, 64)
	length, err2 := strconv.ParseInt(n, 10, 64)
	return offset, length, err1 == nil && err2 == nil && length >= 0 && length <= maxTransfer
}

func (s *Server) doLoad(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 4 {
		return refuse(r, "LOAD wants 3 args")
	}
	offset, length, ok := parseExtent(f[2], f[3])
	if !ok {
		return refuse(r, "bad LOAD numbers")
	}
	// Pooled read: the depot copies from backing storage into a recycled
	// wire buffer, which the loop hands to the socket writer as it is and
	// then returns to the pool.
	data := bufpool.Get(int(length))
	if err := s.Depot.LoadInto(f[1], offset, data); err != nil {
		bufpool.Put(data)
		return fail(r, err, "")
	}
	fmt.Fprintf(r, "OK %d\n", len(data))
	r.PooledBody(data)
	return true
}

func (s *Server) doProbe(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 2 {
		return refuse(r, "PROBE wants 1 arg")
	}
	info, err := s.Depot.Probe(f[1])
	if err != nil {
		return fail(r, err, "")
	}
	fmt.Fprintf(r, "OK %d %d %s\n", info.Size, info.Expires.UnixMilli(), info.Policy)
	return true
}

func (s *Server) doExtend(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 3 {
		return refuse(r, "EXTEND wants 2 args")
	}
	leaseMs, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return refuse(r, "bad EXTEND lease")
	}
	exp, err := s.Depot.Extend(f[1], time.Duration(leaseMs)*time.Millisecond)
	if err != nil {
		return fail(r, err, "")
	}
	fmt.Fprintf(r, "OK %d\n", exp.UnixMilli())
	return true
}

func (s *Server) doFree(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 2 {
		return refuse(r, "FREE wants 1 arg")
	}
	if err := s.Depot.Free(f[1]); err != nil {
		return fail(r, err, "")
	}
	r.Line("OK 0")
	return true
}

// doCopy implements third-party copy: this depot reads the extent locally
// and stores it on the target depot directly, without routing bytes
// through the requesting client.
func (s *Server) doCopy(ctx context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 7 {
		return refuse(r, "COPY wants 6 args")
	}
	offset, length, ok := parseExtent(f[2], f[3])
	targetOff, err := strconv.ParseInt(f[6], 10, 64)
	if !ok || err != nil {
		return refuse(r, "bad COPY numbers")
	}
	data := bufpool.Get(int(length))
	defer bufpool.Put(data)
	if err := s.Depot.LoadInto(f[1], offset, data); err != nil {
		return fail(r, err, "local read")
	}
	target := &Client{Addr: f[4], Dialer: s.CopyDialer}
	// ctx carries the caller's propagated deadline (if any); the client's
	// Timeout bounds the onward store otherwise.
	if err := target.Store(ctx, f[5], targetOff, data); err != nil {
		return fail(r, err, "target store")
	}
	fmt.Fprintf(r, "OK %d\n", length)
	return true
}

func (s *Server) doStatus(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	if len(req.Fields) != 1 {
		return refuse(r, "STATUS wants no args")
	}
	st := s.Depot.Stat()
	fmt.Fprintf(r, "OK %d %d %d\n", st.Capacity, st.Used, st.Allocations)
	return true
}
