package edge

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

	"lonviz/internal/obs"
	"lonviz/internal/overload"
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
// the origin replicas.
type Server struct {
	Cache *Cache
	// PipelineWindow caps the in-flight window granted to clients that
	// negotiate the IBP PIPELINE verb (the edge speaks the same tagged
	// multiplexed mode as depots, so one agent connection can stream a
	// whole view set of stripes without per-stripe round trips). 0 means
	// ibp.DefaultPipelineWindow; negative disables pipelining.
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

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool

	metricsOnce sync.Once
}

// NewServer wraps a cache.
func NewServer(c *Cache) *Server {
	return &Server{Cache: c, conns: make(map[net.Conn]bool)}
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

// initMetrics eagerly registers the shed family so /metrics shows it at
// zero on an idle edge (the check.sh smoke greps before traffic arrives).
func (s *Server) initMetrics() {
	s.metricsOnce.Do(func() {
		reg := s.registry()
		reg.Counter(obs.Label(obs.MEdgeShed, "reason", overload.ReasonQueueFull))
		reg.Counter(obs.MEdgeHits)
		reg.Counter(obs.MEdgeMisses)
		reg.Counter(obs.MEdgeFills)
	})
}

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("edge: server closed")
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
			s.logf("edge server on %s stopped: %v", l.Addr(), err)
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
			log.Printf("edge: panic handling %v: %v", c.RemoteAddr(), r)
		}
	}()
	reg := s.registry()
	s.initMetrics()
	br := bufio.NewReaderSize(c, 64*1024)
	bw := bufio.NewWriterSize(c, 64*1024)
	ew := &respSniffer{w: bw} // above the buffer, as on the depot
	for {
		line, err := readLine(br)
		if err != nil {
			return
		}
		// Trailing trace=/deadline= tokens ride the request line exactly as
		// on the depot protocol: strip both before argument-count checks,
		// parent this request's span under the caller's, and bound the
		// request context with the propagated budget.
		f := strings.Fields(line)
		f, tc, traced := obs.StripTraceToken(f)
		f, budget, hasBudget := obs.StripDeadlineToken(f)
		verb := ""
		if len(f) > 0 {
			verb = f[0]
		}
		var span *obs.Span
		sctx := context.Background()
		if traced {
			sctx, span = s.tracer().StartSpan(obs.ContextWithRemote(sctx, tc), obs.SpanEdgeServe)
			span.SetAttr("op", verb)
			span.SetAttr("peer", c.RemoteAddr().String())
		}
		// PIPELINE upgrades the connection to tagged multiplexed mode,
		// mirroring the depot handshake (see docs/PROTOCOL.md).
		if verb == "PIPELINE" {
			granted, grantErr := s.pipelineGrant(f)
			if grantErr != "" {
				writeErrCode(bw, codeProto, grantErr)
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
			reason := overload.Reason(admitErr)
			reg.Counter(obs.Label(obs.MEdgeShed, "reason", reason)).Inc()
			obs.DefaultLogger().Warn(context.Background(), obs.EvShed,
				"component", "edge", "reason", reason, "op", verb)
			writeErrCode(ew, codeBusy, reason)
			// Unlike the depot, every edge verb is payload-free, so the
			// connection stays synchronized after a shed and is kept open.
			keep = true
		} else {
			keep = s.dispatch(rctx, ew, f)
			release()
		}
		cancel()
		// As on the depot, the span is exported before the last of the
		// reply leaves: a client holding its reply may assume it is.
		if ew.sawErr {
			span.SetAttr("err", "1")
		}
		span.Finish()
		flushErr := bw.Flush()
		reg.Histogram(obs.Label(obs.MEdgeServeMs, "op", verb), obs.LatencyBucketsMs...).
			Observe(float64(time.Since(start)) / 1e6)
		if !keep || flushErr != nil {
			return
		}
	}
}

// acquire runs one request through admission control; with Admission nil
// it still sheds requests whose propagated budget is already exhausted.
func (s *Server) acquire(ctx context.Context, reg *obs.Registry) (func(), error) {
	g := s.Admission
	if g == nil {
		if ctx.Err() != nil {
			return nil, &overload.ShedError{Reason: overload.ReasonDeadline}
		}
		return func() {}, nil
	}
	release, err := g.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	return release, nil
}

// dispatch executes one request; the returned bool says whether to keep
// the connection (false after protocol-fatal errors).
func (s *Server) dispatch(ctx context.Context, bw io.Writer, f []string) bool {
	if len(f) == 0 {
		writeErrCode(bw, codeProto, "empty request")
		return false
	}
	switch f[0] {
	case "LOAD":
		return s.doLoad(ctx, bw, f)
	case "STATUS":
		return s.doStatus(bw, f)
	default:
		// The edge is read-only: ALLOCATE/STORE/etc. belong on depots.
		writeErrCode(bw, codeProto, "unknown verb "+f[0])
		return false
	}
}

func (s *Server) doLoad(ctx context.Context, bw io.Writer, f []string) bool {
	if len(f) != 4 {
		writeErrCode(bw, codeProto, "LOAD wants 3 args")
		return false
	}
	offset, err1 := strconv.ParseInt(f[2], 10, 64)
	length, err2 := strconv.ParseInt(f[3], 10, 64)
	if err1 != nil || err2 != nil || length < 0 || length > maxTransfer {
		writeErrCode(bw, codeProto, "bad LOAD numbers")
		return false
	}
	cp, ok := ParseCap(f[1])
	if !ok {
		writeErrCode(bw, codeNoCap, "not an edge composite capability")
		return true
	}
	data, _, err := s.Cache.Load(ctx, cp, offset, length)
	if err != nil {
		writeErrCode(bw, codeInternal, "fill: "+err.Error())
		return true
	}
	fmt.Fprintf(bw, "OK %d\n", len(data))
	bw.Write(data)
	return true
}

func (s *Server) doStatus(bw io.Writer, f []string) bool {
	if len(f) != 1 {
		writeErrCode(bw, codeProto, "STATUS wants no args")
		return false
	}
	st := s.Cache.Stats()
	fmt.Fprintf(bw, "OK %d %d %d\n", st.Capacity, st.Used, st.Entries)
	return true
}

func writeErrCode(w io.Writer, code, msg string) {
	fmt.Fprintf(w, "ERR %s %s\n", code, sanitize(msg))
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

// respSniffer classifies each response by its first Write.
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
		return "", fmt.Errorf("edge: overlong request line")
	}
	return line, nil
}
