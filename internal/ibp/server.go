package ibp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
	"lonviz/internal/overload"
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
	// Logf logs server events; nil disables logging.
	Logf func(format string, args ...interface{})
	// Obs receives per-verb service-time histograms and error counters;
	// nil records into obs.Default().
	Obs *obs.Registry
	// Tracer receives the server-side request spans opened for traced
	// requests (those carrying a trace= token); nil records into
	// obs.DefaultTracer().
	Tracer *obs.Tracer

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool

	metricsOnce sync.Once
}

// NewServer wraps a depot.
func NewServer(d *Depot) *Server {
	return &Server{Depot: d, conns: make(map[net.Conn]bool)}
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) tracer() *obs.Tracer {
	if s.Tracer != nil {
		return s.Tracer
	}
	return obs.DefaultTracer()
}

func (s *Server) registry() *obs.Registry {
	if s.Obs != nil {
		return s.Obs
	}
	return obs.Default()
}

// initMetrics eagerly registers the overload families so /metrics shows
// them at zero on an idle depot (the check.sh smoke greps for them
// before any traffic arrives).
func (s *Server) initMetrics() {
	s.metricsOnce.Do(func() {
		reg := s.registry()
		reg.Counter(obs.Label(obs.MIBPShed, "reason", overload.ReasonQueueFull))
		reg.Gauge(obs.MIBPInflight).Set(0)
		reg.Gauge(obs.MIBPQueueDepth).Set(0)
	})
}

// shed answers one request with ERR BUSY and records why. The connection
// is closed afterwards (callers return keep=false): a shed STORE has an
// unread payload on the wire, and dropping the connection is the only
// way to stay synchronized without reading bytes on a request we refused
// to serve.
func (s *Server) shed(bw io.Writer, verb, reason string) {
	reg := s.registry()
	reg.Counter(obs.Label(obs.MIBPShed, "reason", reason)).Inc()
	obs.DefaultLogger().Warn(context.Background(), obs.EvShed,
		"component", "ibp", "reason", reason, "op", verb)
	writeErr(bw, ErrBusy, reason)
}

// Serve accepts connections on l until Close. It returns when the listener
// fails (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("ibp: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	s.initMetrics()
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = true
		s.mu.Unlock()
		go s.handle(c)
	}
}

// ListenAndServe listens on addr and serves in a new goroutine, returning
// the bound address (useful with ":0").
func (s *Server) ListenAndServe(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := s.Serve(l); err != nil {
			s.logf("ibp server on %s stopped: %v", l.Addr(), err)
		}
	}()
	return l.Addr().String(), nil
}

// Close stops the listener and closes active connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.conns = make(map[net.Conn]bool)
	return err
}

func (s *Server) removeConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) handle(c net.Conn) {
	defer c.Close()
	defer s.removeConn(c)
	defer func() {
		if r := recover(); r != nil {
			log.Printf("ibp: panic handling %v: %v", c.RemoteAddr(), r)
		}
	}()
	reg := s.registry()
	s.initMetrics()
	br := bufio.NewReaderSize(c, 64*1024)
	// The response-sniffing writer sits on top of the bufio.Writer: the
	// first Write of each request is always the status line, so it can
	// classify the outcome without threading a result through every verb
	// handler, and before any of the reply is flushed.
	bw := bufio.NewWriterSize(c, 64*1024)
	ew := &respSniffer{w: bw}
	for {
		line, err := readLine(br)
		if err != nil {
			return // client hung up or sent an overlong line
		}
		// Optional trailing tokens ride the request line: a
		// trace=<tid>/<sid> token names the calling client's active span,
		// and a deadline=<ms> token carries its remaining time budget.
		// Both are stripped before verb dispatch (argument-count checks
		// must not see them); the trace token parents this request's span
		// under the client's, and the deadline token bounds the request
		// context so work whose client has already moved on is dropped.
		// Requests without tokens (all pre-propagation clients) take the
		// untouched fast path.
		f := parseFields(line)
		f, tc, traced := obs.StripTraceToken(f)
		f, budget, hasBudget := obs.StripDeadlineToken(f)
		verb := ""
		if len(f) > 0 {
			verb = f[0]
		}
		var span *obs.Span
		sctx := context.Background()
		if traced {
			sctx, span = s.tracer().StartSpan(obs.ContextWithRemote(sctx, tc), obs.SpanIBPServe)
			span.SetAttr("op", verb)
			span.SetAttr("peer", c.RemoteAddr().String())
		}
		// PIPELINE is the mode switch, not a data-plane verb: grant a
		// window, answer OK, and hand the connection to the tagged
		// multiplexed loop. A refusal (disabled or malformed) is
		// protocol-fatal, exactly like an unknown verb on a pre-PIPELINE
		// depot, so clients read any ERR as "speak serial here".
		if verb == "PIPELINE" {
			granted, grantErr := s.pipelineGrant(f)
			if grantErr != "" {
				writeErr(bw, ErrProto, grantErr)
				span.Finish()
				bw.Flush()
				return
			}
			fmt.Fprintf(bw, "OK %d\n", granted)
			span.Finish()
			if bw.Flush() != nil {
				return
			}
			s.servePipelined(c, br, granted)
			return
		}
		rctx, cancel := obs.DeadlineContext(sctx, budget, hasBudget)
		ew.reset()
		start := time.Now()
		release, admitErr := s.acquire(rctx, reg)
		var keep bool
		if admitErr != nil {
			s.shed(ew, verb, overload.Reason(admitErr))
			keep = false
		} else {
			// CPU attribution: any profile of a loaded depot slices by
			// {class=ibp, verb=...}. The wrapper is a no-op (and
			// alloc-free) until -metrics-addr turns the stack on.
			lctx := prof.Begin2(rctx, prof.KeyClass, "ibp", prof.KeyVerb, verb)
			keep = s.dispatch(lctx, br, ew, f)
			prof.End(rctx)
			release()
		}
		cancel()
		// A client holding its reply may assume the server span is
		// exported (the trace collector does), so the span finishes
		// before the last of the reply leaves.
		if ew.sawErr {
			reg.Counter(obs.Label(obs.MIBPServerErrors, "op", verb)).Inc()
			span.SetAttr("err", "1")
			obs.DefaultLogger().Warn(sctx, obs.EvIBPServeErr,
				"op", verb, "peer", c.RemoteAddr().String())
		}
		span.Finish()
		flushErr := bw.Flush()
		reg.Histogram(obs.Label(obs.MIBPServerOpMs, "op", verb), obs.LatencyBucketsMs...).
			Observe(float64(time.Since(start)) / 1e6)
		if !keep || flushErr != nil {
			return
		}
	}
}

// acquire runs one request through admission control and keeps the load
// gauges current. With Admission nil it still sheds requests whose
// propagated deadline budget is already exhausted — the client stopped
// waiting, so serving it only burns depot capacity.
func (s *Server) acquire(ctx context.Context, reg *obs.Registry) (func(), error) {
	g := s.Admission
	if g == nil {
		if ctx.Err() != nil {
			return nil, &overload.ShedError{Reason: overload.ReasonDeadline}
		}
		return func() {}, nil
	}
	release, err := g.Acquire(ctx)
	reg.Gauge(obs.MIBPInflight).Set(g.InFlight())
	reg.Gauge(obs.MIBPQueueDepth).Set(g.Queued())
	if err != nil {
		return nil, err
	}
	return func() {
		release()
		reg.Gauge(obs.MIBPInflight).Set(g.InFlight())
		reg.Gauge(obs.MIBPQueueDepth).Set(g.Queued())
	}, nil
}

// respSniffer classifies each response by its first Write (which always
// starts with the "OK"/"ERR" status line).
type respSniffer struct {
	w      io.Writer
	wrote  bool
	sawErr bool
}

func (w *respSniffer) reset() { w.wrote, w.sawErr = false, false }

func (w *respSniffer) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.sawErr = strings.HasPrefix(string(p[:min(3, len(p))]), "ERR")
	}
	return w.w.Write(p)
}

// readLine reads one \n-terminated line with a length cap.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) > maxLineLen {
		return "", ErrProto
	}
	return line, nil
}

// dispatch executes one request (fields already parsed and tokens
// stripped; ctx carries any propagated deadline); the returned bool says
// whether to keep the connection (false after protocol-fatal errors).
func (s *Server) dispatch(ctx context.Context, br *bufio.Reader, bw io.Writer, f []string) bool {
	if len(f) == 0 {
		writeErr(bw, ErrProto, "empty request")
		return false
	}
	switch f[0] {
	case "ALLOCATE":
		return s.doAllocate(bw, f)
	case "STORE":
		return s.doStore(br, bw, f)
	case "LOAD":
		return s.doLoad(bw, f)
	case "PROBE":
		return s.doProbe(bw, f)
	case "EXTEND":
		return s.doExtend(bw, f)
	case "FREE":
		return s.doFree(bw, f)
	case "COPY":
		return s.doCopy(ctx, bw, f)
	case "STATUS":
		return s.doStatus(bw, f)
	default:
		writeErr(bw, ErrProto, "unknown verb "+f[0])
		return false
	}
}

func writeErr(w io.Writer, err error, context string) {
	msg := err.Error()
	if context != "" {
		msg = context + ": " + msg
	}
	fmt.Fprintf(w, "ERR %s %s\n", codeOf(err), sanitize(msg))
}

// sanitize keeps error messages single-line.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' || s[i] == '\r' {
			out = append(out, ' ')
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

func (s *Server) doAllocate(bw io.Writer, f []string) bool {
	if len(f) != 4 {
		writeErr(bw, ErrProto, "ALLOCATE wants 3 args")
		return false
	}
	size, err1 := strconv.ParseInt(f[1], 10, 64)
	leaseMs, err2 := strconv.ParseInt(f[2], 10, 64)
	if err1 != nil || err2 != nil {
		writeErr(bw, ErrProto, "bad ALLOCATE numbers")
		return false
	}
	caps, err := s.Depot.Allocate(size, time.Duration(leaseMs)*time.Millisecond, Policy(f[3]))
	if err != nil {
		writeErr(bw, err, "")
		return true
	}
	fmt.Fprintf(bw, "OK %s %s %s\n", caps.Read, caps.Write, caps.Manage)
	return true
}

func (s *Server) doStore(br *bufio.Reader, bw io.Writer, f []string) bool {
	if len(f) != 4 {
		writeErr(bw, ErrProto, "STORE wants 3 args")
		return false
	}
	offset, err1 := strconv.ParseInt(f[2], 10, 64)
	length, err2 := strconv.ParseInt(f[3], 10, 64)
	if err1 != nil || err2 != nil || length < 0 || length > maxTransfer {
		writeErr(bw, ErrProto, "bad STORE numbers")
		return false
	}
	// The payload must be consumed even if the store will fail, to keep
	// the connection synchronized. The wire buffer is pooled: the depot
	// copies into its backing store, so the buffer is free again as soon
	// as the store returns.
	data := bufpool.Get(int(length))
	defer bufpool.Put(data)
	if _, err := io.ReadFull(br, data); err != nil {
		return false
	}
	return s.doStoreData(bw, f, offset, data)
}

// doStoreData performs a STORE whose payload has already been consumed
// (serial path above, or the pipelined reader loop). The caller owns
// data and may recycle it once this returns.
func (s *Server) doStoreData(bw io.Writer, f []string, offset int64, data []byte) bool {
	if err := s.Depot.Store(f[1], offset, data); err != nil {
		writeErr(bw, err, "")
		return true
	}
	fmt.Fprintf(bw, "OK %d\n", len(data))
	return true
}

func (s *Server) doLoad(bw io.Writer, f []string) bool {
	if len(f) != 4 {
		writeErr(bw, ErrProto, "LOAD wants 3 args")
		return false
	}
	offset, err1 := strconv.ParseInt(f[2], 10, 64)
	length, err2 := strconv.ParseInt(f[3], 10, 64)
	if err1 != nil || err2 != nil || length < 0 || length > maxTransfer {
		writeErr(bw, ErrProto, "bad LOAD numbers")
		return false
	}
	// Pooled read: the depot copies from backing storage into a recycled
	// wire buffer, which goes back to the pool as soon as it has been
	// handed to the socket writer.
	data := bufpool.Get(int(length))
	defer bufpool.Put(data)
	if err := s.Depot.LoadInto(f[1], offset, data); err != nil {
		writeErr(bw, err, "")
		return true
	}
	fmt.Fprintf(bw, "OK %d\n", len(data))
	bw.Write(data)
	return true
}

func (s *Server) doProbe(bw io.Writer, f []string) bool {
	if len(f) != 2 {
		writeErr(bw, ErrProto, "PROBE wants 1 arg")
		return false
	}
	info, err := s.Depot.Probe(f[1])
	if err != nil {
		writeErr(bw, err, "")
		return true
	}
	fmt.Fprintf(bw, "OK %d %d %s\n", info.Size, info.Expires.UnixMilli(), info.Policy)
	return true
}

func (s *Server) doExtend(bw io.Writer, f []string) bool {
	if len(f) != 3 {
		writeErr(bw, ErrProto, "EXTEND wants 2 args")
		return false
	}
	leaseMs, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		writeErr(bw, ErrProto, "bad EXTEND lease")
		return false
	}
	exp, err := s.Depot.Extend(f[1], time.Duration(leaseMs)*time.Millisecond)
	if err != nil {
		writeErr(bw, err, "")
		return true
	}
	fmt.Fprintf(bw, "OK %d\n", exp.UnixMilli())
	return true
}

func (s *Server) doFree(bw io.Writer, f []string) bool {
	if len(f) != 2 {
		writeErr(bw, ErrProto, "FREE wants 1 arg")
		return false
	}
	if err := s.Depot.Free(f[1]); err != nil {
		writeErr(bw, err, "")
		return true
	}
	fmt.Fprintf(bw, "OK 0\n")
	return true
}

// doCopy implements third-party copy: this depot reads the extent locally
// and stores it on the target depot directly, without routing bytes
// through the requesting client.
func (s *Server) doCopy(ctx context.Context, bw io.Writer, f []string) bool {
	if len(f) != 7 {
		writeErr(bw, ErrProto, "COPY wants 6 args")
		return false
	}
	offset, err1 := strconv.ParseInt(f[2], 10, 64)
	length, err2 := strconv.ParseInt(f[3], 10, 64)
	targetOff, err3 := strconv.ParseInt(f[6], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || length < 0 || length > maxTransfer {
		writeErr(bw, ErrProto, "bad COPY numbers")
		return false
	}
	data := bufpool.Get(int(length))
	defer bufpool.Put(data)
	if err := s.Depot.LoadInto(f[1], offset, data); err != nil {
		writeErr(bw, err, "local read")
		return true
	}
	dialer := s.CopyDialer
	if dialer == nil {
		dialer = NetDialer{}
	}
	target := &Client{Addr: f[4], Dialer: dialer}
	// ctx carries the caller's propagated deadline (if any); the client's
	// Timeout bounds the onward store otherwise.
	if err := target.Store(ctx, f[5], targetOff, data); err != nil {
		writeErr(bw, err, "target store")
		return true
	}
	fmt.Fprintf(bw, "OK %d\n", length)
	return true
}

func (s *Server) doStatus(bw io.Writer, f []string) bool {
	if len(f) != 1 {
		writeErr(bw, ErrProto, "STATUS wants no args")
		return false
	}
	st := s.Depot.Stat()
	fmt.Fprintf(bw, "OK %d %d %d\n", st.Capacity, st.Used, st.Allocations)
	return true
}
