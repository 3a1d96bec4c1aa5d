package wire

// The client half: the one transport under every client of the line
// protocols. A protocol brings its telemetry names, its error sentinels and
// its ERR classifier (a Protocol) and describes each request declaratively (a
// Call); the transport owns the rest — dialing under a context, the PIPELINE
// handshake and the memory of a refusal, the request write with tag= and the
// trailing tokens, the bounded reply-line read, OK/ERR/MISS classification,
// body delivery into the caller's buffer, tagged demultiplexing,
// cancellation, connection reuse with its retry rule, and the metrics.
//
// As on the server there is one connection type, untagged with a window of
// one until upgraded. How many connections a Client keeps and whether it
// upgrades them (Window, Keep) is its whole configuration, fixed by the
// wrapping package. DESIGN.md §10 lists who uses which.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
)

// Dialer abstracts connection establishment so tests and experiments can
// inject netsim-shaped links. *netsim.Dialer satisfies it.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

type netDialer struct{}

func (netDialer) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

const (
	// replyLineCap bounds a reply line in every protocol: error text travels
	// on it, so it is the largest of the request caps.
	replyLineCap = 4096
	// handshakeTimeout bounds the PIPELINE round trip on a fresh connection.
	handshakeTimeout = 10 * time.Second
	// idleTimeout is the tagged reader's watchdog: a connection with requests
	// in flight that sees no reply bytes for this long is declared broken
	// (the requests fail over through lors). An idle one just re-arms.
	idleTimeout = 30 * time.Second
	// maxListEntries bounds the entry count a ListBody reply may announce.
	maxListEntries = 1024
)

// ClientNames is what a protocol calls its client-side telemetry. An empty
// name means the protocol has no such series.
type ClientNames struct {
	// ProfClass is the pprof class label put on the calling goroutine, with
	// the verb and the peer address (label key "depot") beside it.
	ProfClass string
	// OpMs is the latency histogram and Errors the failure counter, both
	// labelled op. PeerMs is the latency histogram labelled depot=<addr>;
	// BytesOut and BytesIn, counted where it is set, are payload and body bytes.
	OpMs, Errors, PeerMs, BytesOut, BytesIn string
	// The tagged-mode families: handshakes granted and refused, operations
	// by mode, tagged connections that broke in use, requests in flight.
	PipeDials, PipeFallbacks, PipeOps, PipeBroken, PipeDepth string
}

// Protocol is what a line protocol brings to the transport.
type Protocol struct {
	Names ClientNames
	// Tokens says the protocol defines the deadline= and trace= tokens.
	Tokens bool
	// Err turns the fields that follow "ERR", at least one, into an error.
	Err func(f []string) error
	// Miss is what a MISS reply returns; nil when the protocol has none.
	Miss error
	// Malformed wraps what is wrong with a reply that cannot be parsed or did
	// not arrive; Broken what ended a tagged connection, failing every
	// request in flight on it.
	Malformed, Broken error
}

// Body says what follows an OK status line.
type Body uint8

const (
	NoBody Body = iota
	// SizedBody: the last OK field counts the bytes that follow.
	SizedBody
	// ListBody: the last OK field counts entries, each a "<len>\n" line and
	// len bytes (the DVS GET reply).
	ListBody
)

// Call is one request and, once Do returns nil, its reply.
type Call struct {
	// Line is the verb and its arguments: no tag, tokens or newline.
	Line string
	// Payload follows the line (STORE, PUT, REPLACE).
	Payload []byte
	// Idempotent says sending the request twice is harmless.
	Idempotent bool
	// Body is the reply's shape and Max the most bytes its body (each entry
	// of a list) may announce; a larger count is a malformed reply.
	Body Body
	Max  int
	// Dst, when set, receives a SizedBody, which must be exactly len(Dst).
	Dst []byte

	// Fields are the OK fields; Data the SizedBody when Dst was nil; List
	// the ListBody entries.
	Fields []string
	Data   []byte
	List   [][]byte

	state atomic.Int32 // tagged: who owns the result fields and Dst
	done  chan result  // tagged: buffered(1), delivery never blocks the reader
}

const (
	callPending   = iota // reply not yet arrived, caller waiting
	callDelivered        // the reader claimed it and will deliver (possibly filling Dst)
	callAbandoned        // the caller gave up (ctx done); the reader discards the body
)

// outcome is what an exchange did to its connection.
type outcome int

const (
	broken outcome = iota // I/O failed or the stream can no longer be trusted
	failed                // the request failed, the stream is in step
	served                // OK or MISS, fully consumed
)

type result struct {
	out outcome
	err error
}

func (c *Call) verb() string {
	verb, _, _ := strings.Cut(c.Line, " ")
	return verb
}

// Client reaches one address. Window and Keep choose among the three ways
// of holding connections: neither set, every operation dials and closes its
// own connection and the Client holds nothing between calls; Window asks the
// server for PIPELINE on one connection that all operations then share
// (falling back for good to a connection per operation if it refuses); Keep
// holds up to that many untagged connections open, one request on each at a
// time. The exported fields are read-only after the first operation.
type Client struct {
	Addr string
	// Dialer establishes connections; nil means plain TCP.
	Dialer Dialer
	// Timeout bounds one operation together with the context's deadline,
	// whichever is sooner; 0 leaves it to the context.
	Timeout time.Duration
	// Obs receives the protocol's metrics; nil records into obs.Default().
	Obs    *obs.Registry
	Proto  *Protocol
	Window int
	Keep   int

	idle time.Duration // tests shorten the watchdog; 0 means idleTimeout

	mu        sync.Mutex
	slots     chan struct{} // Keep: one token per request in flight
	kept      []*ClientConn // Keep: idle connections, most recently used last
	pipe      *ClientConn   // Window: the tagged connection
	refused   bool          // Window: the server answered PIPELINE with ERR
	upgrading chan struct{} // Window: held (one token) by whoever is handshaking
}

func (c *Client) registry() *obs.Registry { return Settings{Obs: c.Obs}.registry() }

// count bumps the counter a protocol named, if it named one.
func (c *Client) count(name string) {
	if name != "" {
		c.registry().Counter(name).Inc()
	}
}

func (c *Client) malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", c.Proto.Malformed, fmt.Sprintf(format, args...))
}

// Do sends call and fills in its reply.
func (c *Client) Do(ctx context.Context, call *Call) error { return c.run(ctx, call, nil) }

// run is one operation from pprof label to metrics, on the connection the
// caller holds (a Pipe's) or, with on nil, on one the client picks.
func (c *Client) run(ctx context.Context, call *Call, on *ClientConn) error {
	n, verb, start := &c.Proto.Names, call.verb(), time.Now()
	if n.ProfClass != "" {
		// CPU attribution: client-side I/O shows up in profiles sliced by
		// {class, verb, depot}, so a slow peer is identifiable from the
		// caller's own capture bundle.
		defer prof.End(ctx)
		ctx = prof.Begin3(ctx, prof.KeyClass, n.ProfClass, prof.KeyVerb, verb, prof.KeyDepot, c.Addr)
	}
	err := c.do(ctx, call, on, start)
	if n.OpMs == "" {
		return err
	}
	reg, ms, tid := c.registry(), float64(time.Since(start))/1e6, obs.TraceIDFrom(ctx)
	// The trace ID is the exemplar, so a slow tail links to its merged trace.
	reg.Histogram(obs.Label(n.OpMs, "op", verb), obs.LatencyBucketsMs...).ObserveTrace(ms, tid)
	if n.PeerMs != "" {
		reg.Histogram(obs.Label(n.PeerMs, "depot", c.Addr), obs.LatencyBucketsMs...).ObserveTrace(ms, tid)
		reg.Counter(n.BytesOut).Add(int64(len(call.Payload)))
		if err == nil {
			reg.Counter(n.BytesIn).Add(int64(len(call.Dst) + len(call.Data)))
		}
	}
	// A miss is an expected outcome, not an operational failure.
	if err != nil && !(c.Proto.Miss != nil && errors.Is(err, c.Proto.Miss)) {
		reg.Counter(obs.Label(n.Errors, "op", verb)).Inc()
	}
	return err
}

// do picks a connection, runs the exchange and applies the retry rule: a
// connection that fails with an I/O or protocol error is closed, and if it
// had served a request before, the server may simply have gone away since,
// so the request is sent once more on a new one — but only if repeating it
// is harmless: the verb is idempotent, or not a byte was written.
func (c *Client) do(ctx context.Context, call *Call, on *ClientConn, start time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	deadline, bounded := ctx.Deadline()
	if t := start.Add(c.Timeout); c.Timeout > 0 && (!bounded || t.Before(deadline)) {
		deadline, bounded = t, true
		if c.Window > 0 {
			// Waiting on a shared connection selects on the context, so the
			// context must carry the whole bound.
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
	}
	tokens := ""
	if c.Proto.Tokens {
		// "" (no allocation) when propagation is off or ctx carries neither
		// a deadline nor a span: unpropagated deployments send the same
		// bytes as before there were tokens.
		tokens = obs.LineTokens(ctx)
	}
	if on != nil {
		_, err := on.exchange(ctx, call, tokens)
		return err
	}
	for attempt := 0; ; attempt++ {
		cc, reused, err := c.acquire(ctx)
		if err != nil {
			return err
		}
		out, unwritten, tagged, mode := broken, false, cc.slots != nil, "serial"
		if tagged {
			mode = "pipelined"
		}
		if name := c.Proto.Names.PipeOps; name != "" {
			c.count(obs.Label(name, "mode", mode))
		}
		if tagged {
			out, err = cc.exchange(ctx, call, tokens)
		} else {
			out, unwritten, err = cc.roundTrip(ctx, call, tokens, deadline)
			c.release(cc, out == served)
		}
		if out != broken || ctx.Err() != nil || bounded && !time.Now().Before(deadline) {
			return err // answered; or timed out, not stale: a redial would only fail the same way
		}
		if tagged {
			c.count(c.Proto.Names.PipeBroken)
		}
		if attempt > 0 || !reused || !(call.Idempotent || unwritten) {
			return err
		}
		// The other idle connections are as old as the one that just failed.
		c.CloseIdle()
	}
}

// acquire returns the connection for one exchange: the tagged one when the
// server grants it, else an idle kept one, else a new one. reused says it
// has carried a request before.
func (c *Client) acquire(ctx context.Context) (cc *ClientConn, reused bool, err error) {
	if c.Window > 0 {
		if cc, reused, err = c.tagged(ctx); cc != nil || err != nil {
			return cc, reused, err
		}
	}
	if c.Keep > 0 {
		c.mu.Lock()
		if c.slots == nil {
			c.slots = make(chan struct{}, c.Keep)
		}
		c.mu.Unlock()
		select {
		case c.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		c.mu.Lock()
		if n := len(c.kept); n > 0 {
			cc, c.kept = c.kept[n-1], c.kept[:n-1]
		}
		c.mu.Unlock()
		if cc != nil {
			return cc, true, nil
		}
	}
	if cc, err = c.dial(ctx); err != nil && c.Keep > 0 {
		<-c.slots
	}
	return cc, false, err
}

// release gives back the slot and keeps cc with its deadline cleared, or
// closes it. Unread reply bytes mean it is out of step with the server.
func (c *Client) release(cc *ClientConn, keep bool) {
	keep = keep && c.Keep > 0 && cc.br.Buffered() == 0 && cc.nc.SetDeadline(time.Time{}) == nil
	c.mu.Lock()
	if keep && len(c.kept) < c.Keep {
		c.kept = append(c.kept, cc)
		cc = nil
	}
	c.mu.Unlock()
	if cc != nil {
		cc.closeUntagged()
	}
	if c.Keep > 0 {
		<-c.slots
	}
}

// CloseIdle closes the kept idle connections; the Client redials on demand.
func (c *Client) CloseIdle() {
	c.mu.Lock()
	kept := c.kept
	c.kept = nil
	c.mu.Unlock()
	for _, cc := range kept {
		cc.closeUntagged()
	}
}

// Close is CloseIdle plus the tagged connection, whose requests in flight
// fail. The Client remains usable; later operations redial.
func (c *Client) Close() error {
	c.CloseIdle()
	c.mu.Lock()
	pipe := c.pipe
	c.pipe = nil
	c.mu.Unlock()
	if pipe != nil {
		pipe.Close()
	}
	return nil
}

// Mode reports how the client reaches its server: "pipelined" over a tagged
// connection, "serial" when it never upgrades or was refused, "" while an
// upgrade has yet to be tried.
func (c *Client) Mode() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.pipe != nil:
		return "pipelined"
	case c.refused || c.Window <= 0:
		return "serial"
	}
	return ""
}

var errRefused = errors.New("wire: peer does not speak PIPELINE")

// Connect returns the tagged connection, establishing it if need be. It is
// an error for the server to refuse the upgrade.
func (c *Client) Connect(ctx context.Context) (*ClientConn, error) {
	cc, _, err := c.tagged(ctx)
	if cc == nil && err == nil {
		err = errRefused
	}
	return cc, err
}

// tagged returns the live tagged connection, establishing it when there is
// none; (nil, false, nil) means the server refuses PIPELINE. One caller at a
// time dials and handshakes, holding upgrading's token; the others wait for
// the token under their own contexts and find the work done, or do it.
func (c *Client) tagged(ctx context.Context) (cc *ClientConn, reused bool, err error) {
	live := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.upgrading == nil {
			c.upgrading = make(chan struct{}, 1)
		}
		if cc = c.pipe; c.refused {
			cc = nil
		}
		return c.refused || cc != nil && cc.Broken() == nil
	}
	if live() {
		return cc, true, nil
	}
	select {
	case c.upgrading <- struct{}{}:
		defer func() { <-c.upgrading }()
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if live() {
		return cc, true, nil
	}
	cc, err = c.handshake(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		c.pipe = cc
		c.count(c.Proto.Names.PipeDials)
	case errors.Is(err, errRefused):
		// A server that predates the verb ("unknown verb PIPELINE") or has
		// pipelining disabled: either way, untagged from here on.
		c.refused, err = true, nil
		c.count(c.Proto.Names.PipeFallbacks)
	}
	return cc, false, err
}

// handshake dials and upgrades one connection. The PIPELINE request is an
// ordinary untagged exchange without tokens.
func (c *Client) handshake(ctx context.Context) (*ClientConn, error) {
	cc, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(handshakeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	hs := Call{Line: "PIPELINE " + strconv.Itoa(c.Window)}
	out, _, err := cc.roundTrip(ctx, &hs, "", deadline)
	switch granted := 0; {
	case out == failed && err != nil:
		err = errRefused // only an ERR reply is a refusal to remember
	case out == failed:
		err = ctx.Err() // granted, but the caller's cancellation may yet hit the socket
	case out == served:
		if len(hs.Fields) == 1 {
			granted, _ = strconv.Atoi(hs.Fields[0])
		}
		if granted <= 0 {
			err = c.malformed("bad PIPELINE grant %q", hs.Fields)
		} else {
			_ = cc.nc.SetDeadline(time.Time{}) // the reader sets its own, request by request
			cc.window = min(granted, c.Window)
			cc.slots = make(chan struct{}, cc.window)
			cc.waiters = make(map[uint64]*Call)
			cc.done = make(chan struct{})
			go cc.readLoop()
			return cc, nil
		}
	}
	cc.closeUntagged()
	return nil, err
}

// dial connects under ctx: the Dialer takes no context, so the dial runs on
// a goroutine that closes a connection nobody is waiting for any more.
func (c *Client) dial(ctx context.Context) (*ClientConn, error) {
	d := c.Dialer
	if d == nil {
		d = netDialer{}
	}
	type dialed struct {
		nc  net.Conn
		err error
	}
	ch := make(chan dialed)
	go func() {
		nc, err := d.Dial(c.Addr)
		select {
		case ch <- dialed{nc, err}:
		case <-ctx.Done():
			if nc != nil {
				nc.Close()
			}
		}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		cc := &ClientConn{c: c, nc: r.nc, br: readers.Get().(*bufio.Reader)}
		cc.br.Reset(r.nc)
		return cc, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// A connection that serves one operation must not cost a fresh 64 KiB
// buffer: a client connection's reader comes from here and goes back once
// no goroutine can touch it.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connBuf) }}

func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readers.Put(br)
}

// ClientConn is one client connection: untagged, carrying one request at a
// time on its caller's goroutine, until the handshake gives it a window and
// a reader goroutine. Only a tagged one is ever handed out of the package.
type ClientConn struct {
	c   *Client
	nc  net.Conn
	br  *bufio.Reader
	out gather

	// Tagged state.
	window int
	slots  chan struct{} // one token per request in flight: the window
	done   chan struct{} // closed when the connection breaks
	wmu    sync.Mutex    // serializes whole requests onto nc
	depth  atomic.Int64

	mu      sync.Mutex
	waiters map[uint64]*Call
	nextTag uint64
	broken  error
}

// closeUntagged closes a connection no goroutine but the caller's can be
// using, which is what makes its reader safe to hand on.
func (cc *ClientConn) closeUntagged() {
	cc.nc.Close()
	putReader(cc.br)
}

// send writes one request — line, tag, tokens, newline, payload — as one
// gathered write and returns the bytes it moved. tag= rides before the
// tokens so servers can strip right to left: trace, deadline, tag.
func (cc *ClientConn) send(call *Call, tag uint64, tokens string) (int64, error) {
	h := append(cc.out.head[:0], call.Line...)
	if tag != 0 {
		h = strconv.AppendUint(append(h, " tag="...), tag, 10)
	}
	cc.out.head = append(append(h, tokens...), '\n')
	return cc.out.write(cc.nc, call.Payload)
}

// roundTrip is the untagged exchange: the window of one, run on the
// caller's goroutine. unwritten says not a byte of the request left.
func (cc *ClientConn) roundTrip(ctx context.Context, call *Call, tokens string, deadline time.Time) (out outcome, unwritten bool, err error) {
	_ = cc.nc.SetDeadline(deadline) // a conn that cannot take one still fails on its own I/O errors
	// Cancellation mid-request fails the blocked I/O at once.
	stop := context.AfterFunc(ctx, func() { _ = cc.nc.SetDeadline(time.Unix(1, 0)) })
	var line string
	var sent int64
	if sent, err = cc.send(call, 0, tokens); err != nil {
		unwritten = sent == 0
	} else if line, err = ReadLine(cc.br, replyLineCap); err != nil {
		err = cc.c.malformed("reading response: %v", err)
	} else {
		out, err = cc.readReply(strings.Fields(line), call)
	}
	if !stop() && out == served {
		out = failed // the cancel func has started and may yet set its deadline: no reuse
	}
	if out == broken {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		} else if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			err = context.DeadlineExceeded // the connection's timer beat ctx's own
		}
	}
	return out, unwritten, err
}

// readReply interprets one status line (tag prefix removed) for call and
// consumes what follows it. It is the one place a reply is classified.
func (cc *ClientConn) readReply(f []string, call *Call) (outcome, error) {
	p := cc.c.Proto
	switch {
	case len(f) == 0:
		return broken, cc.c.malformed("empty response")
	case f[0] == "OK":
		return cc.readBody(f[1:], call)
	case f[0] == "ERR" && len(f) > 1:
		return failed, p.Err(f[1:])
	case f[0] == "MISS" && p.Miss != nil:
		return served, p.Miss
	}
	return broken, cc.c.malformed("unexpected response %q", strings.Join(f, " "))
}

// readBody consumes what the OK fields announce. On a tagged connection it
// first claims the call: a caller whose ctx fired is racing to abandon it,
// and exactly one side wins the CAS. Losing means the caller is gone and
// Dst may already be reused — the body is read off the wire and dropped.
func (cc *ClientConn) readBody(ok []string, call *Call) (out outcome, err error) {
	owned := cc.slots == nil || call.state.CompareAndSwap(callPending, callDelivered)
	var data []byte
	var list [][]byte
	switch {
	case call.Body == NoBody:
	case len(ok) == 0:
		return broken, cc.c.malformed("response missing length")
	case call.Body == SizedBody:
		if data, out, err = cc.readChunk(ok[len(ok)-1], call, owned, call.Dst); out != served {
			return out, err
		}
	default:
		n, err := strconv.Atoi(ok[len(ok)-1])
		if err != nil || n < 0 || n > maxListEntries {
			return broken, cc.c.malformed("bad entry count")
		}
		list = make([][]byte, n)
		for i := range list {
			line, err := ReadLine(cc.br, replyLineCap)
			if err != nil {
				return broken, cc.c.malformed("reading entry size: %v", err)
			}
			if list[i], out, err = cc.readChunk(strings.TrimSpace(line), call, owned, nil); out != served {
				return out, err
			}
		}
	}
	if owned {
		call.Fields, call.Data, call.List = ok, data, list
	}
	return served, nil
}

// readChunk reads the bytes one size field announces: into dst when the
// caller gave one, else into a buffer that grows a connection buffer's worth
// at a time as they arrive (a length that lies costs that much, not Max),
// and nowhere when the caller has gone. A well-framed chunk of the wrong size is consumed, to
// stay in step, and fails only its request.
func (cc *ClientConn) readChunk(size string, call *Call, owned bool, dst []byte) ([]byte, outcome, error) {
	n, err := strconv.Atoi(size)
	if err != nil || n < 0 || n > call.Max {
		return nil, broken, cc.c.malformed("bad length %q", size)
	}
	wrongSize := dst != nil && n != len(dst)
	switch {
	case !owned || wrongSize:
		_, err = cc.br.Discard(n)
	case dst != nil:
		_, err = io.ReadFull(cc.br, dst)
	default:
		dst = make([]byte, 0, min(n, connBuf))
		for len(dst) < n && err == nil {
			k := min(n-len(dst), connBuf)
			dst = slices.Grow(dst, k)[:len(dst)+k]
			_, err = io.ReadFull(cc.br, dst[len(dst)-k:])
		}
	}
	switch {
	case err != nil:
		return nil, broken, cc.c.malformed("reading body: %v", err)
	case wrongSize:
		return nil, failed, cc.c.malformed("%s returned %d of %d bytes", call.verb(), n, len(dst))
	}
	return dst, served, nil
}

// Do sends call on this connection and no other: a broken one stays broken.
func (cc *ClientConn) Do(ctx context.Context, call *Call) error { return cc.c.run(ctx, call, cc) }

// Window returns the negotiated in-flight window.
func (cc *ClientConn) Window() int { return cc.window }

// Broken reports the connection's terminal error, or nil while it is usable.
func (cc *ClientConn) Broken() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.broken
}

// Close tears the connection down; requests in flight fail.
func (cc *ClientConn) Close() error {
	cc.fail(cc.c.Proto.Broken)
	return nil
}

// fail marks the connection broken exactly once, closes it, and fails
// every request in flight.
func (cc *ClientConn) fail(err error) {
	cc.mu.Lock()
	if cc.broken != nil {
		cc.mu.Unlock()
		return
	}
	cc.broken = err
	ws := cc.waiters
	cc.waiters = nil
	close(cc.done)
	cc.mu.Unlock()
	cc.nc.Close()
	cc.addDepth(-len(ws))
	for _, w := range ws {
		w.done <- result{broken, err}
	}
}

func (cc *ClientConn) addDepth(n int) {
	if name := cc.c.Proto.Names.PipeDepth; name != "" && n != 0 {
		cc.c.registry().Gauge(name).Set(cc.depth.Add(int64(n)))
	}
}

func (cc *ClientConn) brokenf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", cc.c.Proto.Broken, fmt.Sprintf(format, args...))
}

// exchange is the tagged exchange: wait for a window slot, register, write,
// and wait for the reader to deliver. Time queued for the slot counts
// towards the operation: that is what the caller experienced.
func (cc *ClientConn) exchange(ctx context.Context, call *Call, tokens string) (outcome, error) {
	select {
	case cc.slots <- struct{}{}:
	case <-cc.done:
		return broken, cc.Broken()
	case <-ctx.Done():
		return failed, ctx.Err()
	}
	call.state.Store(callPending)
	call.done = make(chan result, 1)
	cc.mu.Lock()
	if cc.broken != nil {
		defer cc.mu.Unlock()
		return broken, cc.broken
	}
	cc.nextTag++
	tag := cc.nextTag
	cc.waiters[tag] = call
	cc.mu.Unlock()
	cc.addDepth(1)
	cc.wmu.Lock()
	_, err := cc.send(call, tag, tokens)
	cc.wmu.Unlock()
	if err != nil {
		cc.fail(cc.brokenf("write: %v", err)) // which delivers to our registered call
	}
	select {
	case res := <-call.done:
		return res.out, res.err
	case <-ctx.Done():
		if call.state.CompareAndSwap(callPending, callAbandoned) {
			// The reader discards the body and frees the slot when the
			// reply arrives (or the watchdog breaks the connection).
			return failed, ctx.Err()
		}
		// The reader has claimed the call and may be filling Dst: wait out
		// the delivery so the caller never races its own buffer.
		res := <-call.done
		return res.out, res.err
	}
}

// readLoop is the tagged connection's one reader: it matches replies to
// calls by tag, lets readReply consume them, and turns any corruption or
// connection error into the failure of every request in flight.
func (cc *ClientConn) readLoop() {
	defer putReader(cc.br)
	idle := cc.c.idle
	if idle == 0 {
		idle = idleTimeout
	}
	for {
		_ = cc.nc.SetReadDeadline(time.Now().Add(idle))
		line, err := ReadLine(cc.br, replyLineCap)
		if err != nil {
			var ne net.Error
			cc.mu.Lock()
			inflight := len(cc.waiters)
			cc.mu.Unlock()
			if errors.As(err, &ne) && ne.Timeout() && inflight == 0 {
				// Watchdog tick with nothing owed: the stream sits at a line
				// boundary, no partial line can have been dropped.
				continue
			}
			cc.fail(cc.brokenf("%v", err))
			return
		}
		f := strings.Fields(line)
		var call *Call
		if len(f) >= 2 && f[0][0] == 'T' {
			if tag, err := strconv.ParseUint(f[0][1:], 10, 64); err == nil {
				cc.mu.Lock()
				call = cc.waiters[tag]
				delete(cc.waiters, tag)
				cc.mu.Unlock()
			}
		}
		if call == nil {
			cc.fail(cc.brokenf("response %q answers no request in flight", line))
			return
		}
		out, err := cc.readReply(f[1:], call)
		if out == broken {
			err = cc.brokenf("%v", err)
		}
		cc.addDepth(-1)
		<-cc.slots
		call.done <- result{out, err}
		if out == broken {
			cc.fail(err)
			return
		}
	}
}
