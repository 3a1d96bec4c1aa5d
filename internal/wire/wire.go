// Package wire is the one server loop behind every line protocol in
// docs/PROTOCOL.md: the IBP depot, the edge cache, the DVS, the server
// agent's render service and the client agent. A service brings a verb
// table, its metric and span names and its own error-line texts; the loop
// owns everything else — listening, connection tracking and Close, the
// bounded request-line read, the optional trailing tokens, the PIPELINE
// grant, payload consumption in stream order, admission and deadline
// shedding, span, pprof-label and metric wrapping, and the reply write.
//
// There is one loop, not a serial one and a pipelined one. A connection
// starts untagged with a window of one: each request runs inline on the
// connection's goroutine and is answered before the next is read. PIPELINE,
// on a service whose verb table lists it, flips the same connection to
// tagged: requests carry tag=<n>, run on up to the granted window of worker
// goroutines, and are answered "T<n> ..." in completion order.
//
// DESIGN.md §10 lists the decisions that live only here.
package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

// DefaultPipelineWindow is the in-flight window a pipelined connection
// uses when neither side configures one. Sized for a striped view set:
// deep enough that a whole stripe fan-out (typically 4-16 extents) rides
// one round trip, small enough to bound per-connection depot memory.
const DefaultPipelineWindow = 32

// maxPipelineWindow caps what a client may request, bounding the
// server-side buffering one connection can demand.
const maxPipelineWindow = 256

// connBuf sizes a connection's read buffer (writes are not buffered): one
// 64 KiB stripe.
const connBuf = 64 * 1024

// tagPrefix marks the per-request tag token on tagged connections. On the
// wire it is ordered before deadline= and trace=.
const tagPrefix = "tag="

// Request is one parsed request line.
type Request struct {
	// Fields are the verb and its arguments, optional tokens stripped.
	Fields []string
	// Tag echoes back as the reply's T<n> prefix on a tagged connection.
	Tag    uint64
	Tagged bool
	// Budget is the caller's remaining time (deadline= token).
	Budget    time.Duration
	HasBudget bool
	// Trace is the caller's active span (trace= token).
	Trace  obs.TraceContext
	Traced bool
	// Payload holds the bytes that followed the line, for a verb that
	// declares one. It is pooled: valid until the handler returns.
	Payload []byte
}

// Verb returns the request's verb, "" for an empty line.
func (r *Request) Verb() string {
	if len(r.Fields) == 0 {
		return ""
	}
	return r.Fields[0]
}

// ParseRequest is the one function that turns a request line into verb,
// arguments, tag, budget and trace context. tokens says whether the
// protocol defines deadline= and trace= at all (the client agent's does
// not); tagged whether the connection has been upgraded, which is the only
// time tag= is a token. Each token is stripped at most once and only from
// the end of the line, in the reverse of the order clients emit them.
func ParseRequest(line string, tokens, tagged bool) Request {
	req := Request{Fields: strings.Fields(line)}
	if tokens {
		req.Fields, req.Trace, req.Traced = obs.StripTraceToken(req.Fields)
		req.Fields, req.Budget, req.HasBudget = obs.StripDeadlineToken(req.Fields)
	}
	if tagged {
		req.Fields, req.Tag, req.Tagged = StripTagToken(req.Fields)
	}
	return req
}

// StripTagToken removes a trailing tag=<n> token from parsed request
// fields; ok is false when the last field is not a well-formed tag, which
// on a tagged connection is a protocol error.
func StripTagToken(fields []string) ([]string, uint64, bool) {
	if len(fields) == 0 {
		return fields, 0, false
	}
	last := fields[len(fields)-1]
	if !strings.HasPrefix(last, tagPrefix) {
		return fields, 0, false
	}
	tag, err := strconv.ParseUint(last[len(tagPrefix):], 10, 64)
	if err != nil {
		return fields, 0, false
	}
	return fields[:len(fields)-1], tag, true
}

// Reply collects one request's answer: a status line (with whatever small
// text follows it), then optionally one payload that leaves from where it
// is, never copied. Nothing reaches the socket until the handler has
// returned, so the outcome is known, and the span finished, before the
// first byte leaves.
type Reply struct {
	head   []byte
	body   []byte
	pooled bool
	buf    [128]byte
}

// text is what has been written so far, in the inline buffer until it
// outgrows it.
func (r *Reply) text() []byte {
	if r.head == nil {
		return r.buf[:0]
	}
	return r.head
}

// Write appends to the status line and the text after it.
func (r *Reply) Write(p []byte) (int, error) {
	r.head = append(r.text(), p...)
	return len(p), nil
}

// Line writes one whole reply line.
func (r *Reply) Line(s string) { r.head = append(append(r.text(), s...), '\n') }

// Body sets the payload that follows what was written. b must stay
// unchanged until the reply has been sent (a cache entry, a decoded frame).
func (r *Reply) Body(b []byte) { r.body = b }

// PooledBody is Body for a bufpool buffer the handler gives up: it goes
// back to the pool once sent.
func (r *Reply) PooledBody(b []byte) { r.body, r.pooled = b, true }

func (r *Reply) isErr() bool { return bytes.HasPrefix(r.head, []byte("ERR")) }

// Verb is one entry of a service's verb table.
type Verb struct {
	// Handle executes the request and writes its reply. Returning false
	// marks the request protocol-fatal: an untagged connection is dropped
	// once the reply is out.
	Handle func(ctx context.Context, req *Request, r *Reply) (keep bool)
	// Payload is set for a verb whose line declares a payload (STORE, DVS
	// PUT/REPLACE). It returns the declared length; the loop then reads
	// exactly that many bytes into req.Payload before Handle runs. When the
	// line does not give a usable length it writes the refusal and returns
	// false, which drops the connection in either mode.
	Payload func(req *Request, r *Reply) (n int, ok bool)
	// Hangup is set for a verb whose Handle may wait a long time on work
	// others share (the client agent's GETVS): on an untagged connection
	// ctx is then cancelled when the peer hangs up before it has its reply.
	Hangup bool

	upgrade bool
}

// Pipeline is the verb-table entry for the PIPELINE mode switch. A service
// that lists it can be upgraded to tagged mode.
var Pipeline = Verb{upgrade: true}

// Names is the table of what a service calls its telemetry. An empty name
// means the service has no such series, and the loop does not invent one.
type Names struct {
	// Component names the service in shed events and log lines.
	Component string
	// Span is the server span opened for a traced request.
	Span string
	// ProfClass is the pprof class label put on handler execution.
	ProfClass string
	// OpMs is the service-time histogram (labelled op), ErrEvent the event
	// logged per ERR reply.
	OpMs, ErrEvent string
	// Shed is the shed counter (labelled reason). A service without one
	// does its own shedding (the render scheduler) or none: the loop
	// admits all its requests.
	Shed string
	// Inflight and QueueDepth are the admission gate's load gauges.
	Inflight, QueueDepth string
}

// Service is what a protocol brings to the loop. It is fixed when the
// server is built.
type Service struct {
	Names Names
	Verbs map[string]Verb
	// LineCap bounds a request line, newline included.
	LineCap int
	// Tokens says the protocol defines the deadline= and trace= tokens.
	Tokens bool
	// Busy renders the reply line (no newline) for a shed request; Refuse
	// the one for a request the loop turns away itself (empty line, unknown
	// verb, bad PIPELINE).
	Busy   func(reason string) string
	Refuse func(msg string) string
}

// Settings are the fields operators and tests set on a service's own
// exported struct, some of them after it has begun serving; the loop reads
// them through the service per request.
type Settings struct {
	// PipelineWindow caps the window PIPELINE grants: 0 means
	// DefaultPipelineWindow, negative refuses the upgrade.
	PipelineWindow int
	// Admission bounds concurrent execution; nil admits everything but a
	// request whose deadline budget is already spent.
	Admission *overload.Gate
	Obs       *obs.Registry
	Tracer    *obs.Tracer
}

// Server serves one Service on any number of listeners' connections.
type Server struct {
	svc      Service
	settings func() Settings

	mu          sync.Mutex
	listener    net.Listener
	conns       map[net.Conn]struct{}
	closed      bool
	metricsOnce sync.Once
}

// NewServer builds the server for svc. settings is called once per request.
func NewServer(svc Service, settings func() Settings) *Server {
	return &Server{svc: svc, settings: settings, conns: make(map[net.Conn]struct{})}
}

func (set Settings) registry() *obs.Registry {
	if set.Obs != nil {
		return set.Obs
	}
	return obs.Default()
}

func (set Settings) tracer() *obs.Tracer {
	if set.Tracer != nil {
		return set.Tracer
	}
	return obs.DefaultTracer()
}

// initMetrics registers the overload families at zero, so /metrics shows
// them on an idle daemon (the check.sh smoke greps before any traffic).
func (s *Server) initMetrics() {
	s.metricsOnce.Do(func() {
		n, reg := s.svc.Names, s.settings().registry()
		if n.Shed != "" {
			reg.Counter(obs.Label(n.Shed, "reason", overload.ReasonQueueFull))
		}
		if n.Inflight != "" {
			reg.Gauge(n.Inflight).Set(0)
			reg.Gauge(n.QueueDepth).Set(0)
		}
	})
}

// Serve accepts connections on l until Close. It returns when the listener
// fails (net.ErrClosed after Close); a server already closed closes l and
// returns net.ErrClosed at once.
func (s *Server) Serve(l net.Listener) error {
	if !s.own(l) {
		return fmt.Errorf("%s: server closed: %w", s.svc.Names.Component, net.ErrClosed)
	}
	s.initMetrics()
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

// ListenAndServe listens on addr and serves in a new goroutine, returning
// the bound address (useful with ":0").
func (s *Server) ListenAndServe(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	// Here, not on the new goroutine: callers go on to set their service's
	// fields once this returns, and settings reads them all. And the server
	// owns l before this returns, so a Close that follows at once closes it.
	s.initMetrics()
	if !s.own(l) {
		return "", fmt.Errorf("%s: server closed", s.svc.Names.Component)
	}
	go func() {
		if err := s.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
			obs.DefaultLogger().Error(obs.EvWireStopped,
				"component", s.svc.Names.Component, "addr", l.Addr().String(), "err", err)
		}
	}()
	return l.Addr().String(), nil
}

// own makes l the listener Close closes, or closes it if Close has run.
func (s *Server) own(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		l.Close()
		return false
	}
	s.listener = l
	return true
}

// Close stops the listener and closes every accepted connection, so no
// handler is left blocked in a read on a connection a client still pools.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	return err
}

// conn is one accepted connection. Untagged, its window is the one
// exchange exch; tagged, it is the granted number of exchanges cycling
// through free, each carried by one worker goroutine at a time. A worker
// that has finished one waits on idle for the reader to hand it the next.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	tagged bool
	free   chan *exchange
	idle   chan *exchange
	exch   exchange

	wmu  sync.Mutex // serializes whole replies onto nc
	out  gather
	werr error // first write error; sticks
}

// exchange is one request and its reply, allocated together.
type exchange struct {
	req Request
	rep Reply
}

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, connBuf),
	}
	var workers sync.WaitGroup
	nworkers := 0
	defer func() {
		if r := recover(); r != nil {
			c.logPanic(r)
		}
		if c.idle != nil {
			close(c.idle) // the waiting workers exit, the busy ones after their exchange
		}
		workers.Wait()
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	for {
		line, err := ReadLine(c.br, s.svc.LineCap)
		if err != nil {
			return // client hung up or sent an overlong line
		}
		if !c.tagged {
			c.exch = exchange{req: ParseRequest(line, s.svc.Tokens, false)}
			if !c.exec(&c.exch) {
				return
			}
			continue
		}
		// Window backpressure: with every exchange out on a worker the reader
		// stops pulling requests, which backs up into the client's TCP stream.
		x := <-c.free
		*x = exchange{req: ParseRequest(line, s.svc.Tokens, true)}
		if !x.req.Tagged || len(x.req.Fields) == 0 {
			// An untagged request on a tagged connection cannot even be
			// answered addressably; drop the connection so the client
			// resynchronizes by redialing.
			return
		}
		// Payloads are consumed here, in order, so stream framing never
		// depends on execution order.
		if v := s.svc.Verbs[x.req.Verb()]; v.Payload != nil && !c.readPayload(v, x) {
			c.send(x, nil)
			return
		}
		// Unless every worker holds an exchange, one is waiting on idle or
		// has put its exchange back and is on its way there. Only when all are
		// busy does a new one start: the peak concurrency has grown.
		if busy := cap(c.free) - len(c.free) - 1; nworkers > busy {
			c.idle <- x
		} else {
			nworkers++
			workers.Add(1)
			go c.work(x, &workers)
		}
	}
}

// work runs exchanges until the connection ends, so a connection has as
// many workers as it once had exchanges in hand at the same time, not one
// per request, and each keeps the stack it has grown.
func (c *conn) work(x *exchange, workers *sync.WaitGroup) {
	defer workers.Done()
	for ok := true; ok; x, ok = <-c.idle {
		c.execTagged(x)
		c.free <- x
	}
}

// execTagged runs one exchange on a worker. A handler that panics costs
// its connection only, as on an untagged one: the panic is logged and the
// connection closed, so the reader ends it and its workers leave.
func (c *conn) execTagged(x *exchange) {
	defer func() {
		if r := recover(); r != nil {
			c.logPanic(r)
			c.nc.Close()
		}
	}()
	c.exec(x)
}

// logPanic records a handler panic recovered on this connection.
func (c *conn) logPanic(r any) {
	obs.DefaultLogger().Error(obs.EvWirePanic,
		"component", c.srv.svc.Names.Component, "peer", c.nc.RemoteAddr().String(), "panic", fmt.Sprint(r))
}

// ReadLine reads one \n-terminated line of at most max bytes, newline
// included, and gives up as soon as max bytes hold no newline — it never
// buffers more of an unterminated line than one read brings in.
func ReadLine(br *bufio.Reader, max int) (string, error) {
	for {
		buf, _ := br.Peek(br.Buffered())
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			if i >= max {
				return "", errLineTooLong
			}
			line := string(buf[:i+1])
			br.Discard(i + 1)
			return line, nil
		}
		if len(buf) >= max {
			return "", errLineTooLong
		}
		if _, err := br.Peek(len(buf) + 1); err != nil {
			return "", err
		}
	}
}

var errLineTooLong = errors.New("wire: line too long")

// readPayload reads the payload x's verb declares into a pooled buffer. On
// false the connection is done for: either the line gave no usable length
// (the refusal is in x.rep) or the stream ended short.
func (c *conn) readPayload(v Verb, x *exchange) bool {
	n, ok := v.Payload(&x.req, &x.rep)
	if !ok {
		return false
	}
	x.req.Payload = bufpool.Get(n)
	_, err := io.ReadFull(c.br, x.req.Payload)
	return err == nil
}

// exec runs one request from span start to reply and reports whether an
// untagged connection may carry another. It is the whole per-request cost
// of every service, in one place.
func (c *conn) exec(x *exchange) (keep bool) {
	s, req, rep := c.srv, &x.req, &x.rep
	set := s.settings()
	n, reg, verb := &s.svc.Names, set.registry(), req.Verb()
	sctx := context.Background()
	var span *obs.Span
	if req.Traced && n.Span != "" {
		// The trace token parents this request's span under the caller's.
		sctx, span = set.tracer().StartSpan(obs.ContextWithRemote(sctx, req.Trace), n.Span)
		span.SetAttr("op", verb)
		span.SetAttr("peer", c.nc.RemoteAddr().String())
	}
	v, known := s.svc.Verbs[verb]
	if v.upgrade {
		if !c.tagged {
			return c.upgrade(x, set.PipelineWindow, span)
		}
		known = false // the mode switch is once per connection
	}
	start := time.Now()
	keep = c.handle(sctx, x, set, v, known)
	if rep.isErr() {
		span.SetAttr("err", "1")
		if n.ErrEvent != "" {
			obs.DefaultLogger().WarnContext(sctx, n.ErrEvent, "op", verb, "peer", c.nc.RemoteAddr().String())
		}
	}
	err := c.send(x, span)
	if n.OpMs != "" {
		reg.Histogram(obs.Label(n.OpMs, "op", verb), obs.LatencyBucketsMs...).
			Observe(float64(time.Since(start)) / 1e6)
	}
	if err != nil && c.tagged {
		c.nc.Close() // poisoned writer: tear the pipe down, client redials
	}
	return keep && err == nil
}

// handle admits x and runs its verb's handler. What it takes — the
// deadline, the admission slot, the payload buffer, the profile labels — it
// gives back by defer, so a handler that panics leaks none of it and a
// daemon under admission control keeps its capacity.
func (c *conn) handle(sctx context.Context, x *exchange, set Settings, v Verb, known bool) (keep bool) {
	s, req, rep := c.srv, &x.req, &x.rep
	n, reg, verb := &s.svc.Names, set.registry(), req.Verb()
	// The deadline token bounds the request context, so work whose client
	// has already moved on is dropped.
	rctx, cancel := obs.DeadlineContext(sctx, req.Budget, req.HasBudget)
	defer cancel()
	defer func() { bufpool.Put(req.Payload) }() // read below on an untagged connection
	release, admitErr := admit(rctx, n, set.Admission, reg)
	defer release()
	switch {
	case admitErr != nil:
		reason := overload.Reason(admitErr)
		reg.Counter(obs.Label(n.Shed, "reason", reason)).Inc()
		obs.DefaultLogger().Warn(obs.EvShed,
			"component", n.Component, "reason", reason, "op", verb)
		rep.Line(s.svc.Busy(reason))
	case !known && verb == "":
		rep.Line(s.svc.Refuse("empty request"))
	case !known:
		rep.Line(s.svc.Refuse("unknown verb " + verb))
	default:
		// CPU attribution: a profile of a loaded daemon slices by
		// {class, verb}. No-op and alloc-free until -metrics-addr turns
		// the stack on.
		lctx := rctx
		if n.ProfClass != "" {
			lctx = prof.Begin2(rctx, prof.KeyClass, n.ProfClass, prof.KeyVerb, verb)
			defer prof.End(rctx)
		}
		if v.Payload == nil || c.tagged || c.readPayload(v, x) {
			if v.Hangup && !c.tagged {
				hctx, stop := c.watchHangup(lctx)
				defer stop()
				return v.Handle(hctx, req, rep)
			}
			return v.Handle(lctx, req, rep)
		}
	}
	return false
}

// watchHangup returns ctx cancelled if the peer of an untagged connection
// hangs up while its one request is being handled. Such a client sends
// nothing more before it has its reply, so a read that fails before stop is
// called is the hang-up (closing only the sending half counts as one); stop
// ends the read by a deadline and leaves the connection readable, any byte
// that did arrive still buffered.
func (c *conn) watchHangup(ctx context.Context) (_ context.Context, stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		if _, err := c.br.Peek(1); err != nil {
			cancel()
		}
		close(done)
	}()
	return ctx, func() {
		c.nc.SetReadDeadline(time.Unix(1, 0))
		<-done
		c.nc.SetReadDeadline(time.Time{})
		cancel()
	}
}

// admit runs one request through admission control and keeps the load
// gauges current. Without a gate it still sheds a request whose propagated
// budget is already spent — the client stopped waiting, so serving it only
// burns capacity.
func admit(ctx context.Context, n *Names, g *overload.Gate, reg *obs.Registry) (release func(), err error) {
	if n.Shed == "" || g == nil && ctx.Err() == nil {
		return func() {}, nil
	}
	if g == nil {
		return func() {}, &overload.ShedError{Reason: overload.ReasonDeadline}
	}
	gauges := func() {
		if n.Inflight != "" {
			reg.Gauge(n.Inflight).Set(g.InFlight())
			reg.Gauge(n.QueueDepth).Set(g.Queued())
		}
	}
	rel, err := g.Acquire(ctx)
	gauges()
	if err != nil {
		return func() {}, err
	}
	return func() { rel(); gauges() }, nil
}

// upgrade answers PIPELINE: grant a window and flip the connection to
// tagged, or refuse, which is protocol-fatal exactly like an unknown verb
// on a server that predates PIPELINE — so clients read any ERR as "speak
// serial here". It runs before admission: a loaded server still grants the
// mode and then sheds tagged requests one by one.
func (c *conn) upgrade(x *exchange, max int, span *obs.Span) bool {
	f, refuse := x.req.Fields, ""
	req := 0
	switch {
	case max < 0:
		refuse = "pipelining disabled"
	case len(f) != 2:
		refuse = "PIPELINE wants 1 arg"
	default:
		var err error
		if req, err = strconv.Atoi(f[1]); err != nil || req <= 0 {
			refuse = "bad PIPELINE window"
		}
	}
	if refuse != "" {
		x.rep.Line(c.srv.svc.Refuse(refuse))
		c.send(x, span)
		return false
	}
	if max == 0 {
		max = DefaultPipelineWindow
	}
	granted := min(req, max, maxPipelineWindow)
	fmt.Fprintf(&x.rep, "OK %d\n", granted)
	if c.send(x, span) != nil {
		return false
	}
	c.tagged, c.free, c.idle = true, make(chan *exchange, granted), make(chan *exchange)
	for i := 0; i < granted; i++ {
		c.free <- new(exchange)
	}
	return true
}

// send finishes the request's span and then writes its reply — tag prefix,
// status text, payload — as one gathered write. It is the only place a
// reply leaves a server, so the span is always exported before the client
// can act on the answer (the trace collector relies on it).
func (c *conn) send(x *exchange, span *obs.Span) error {
	span.Finish()
	rep := &x.rep
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr == nil && len(rep.head) > 0 {
		h := c.out.head[:0]
		if x.req.Tagged {
			h = append(strconv.AppendUint(append(h, 'T'), x.req.Tag, 10), ' ')
		}
		c.out.head = append(h, rep.head...)
		_, c.werr = c.out.write(c.nc, rep.body)
	}
	if rep.pooled {
		bufpool.Put(rep.body)
	}
	return c.werr
}

// gather is one connection's message in the making: head is built in place
// (request line and tokens, or tag prefix and status text), and write sends
// it with the payload that follows it, if any, straight from where that
// lies: one writev on a TCP socket, a Write per part on a wrapped conn.
// Reused by its connection under the lock that orders its messages, so a
// write allocates nothing.
type gather struct {
	head []byte
	iov  [2][]byte
	vec  net.Buffers
}

func (g *gather) write(w io.Writer, body []byte) (int64, error) {
	g.vec = append(g.iov[:0], g.head)
	if len(body) > 0 {
		g.vec = append(g.vec, body)
	}
	return g.vec.WriteTo(w)
}

// OneLine keeps an error message on the reply's one line.
func OneLine(s string) string { return oneLine.Replace(s) }

var oneLine = strings.NewReplacer("\n", " ", "\r", " ")
