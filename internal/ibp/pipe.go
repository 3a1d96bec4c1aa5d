package ibp

// Client side of pipelined mode. A Pipe is one upgraded depot connection
// multiplexing many tagged requests; a PipePool hands lors one call —
// LoadInto — and manages the pipe lifecycle behind it: dialing and
// handshaking on first use, remembering depots that refused PIPELINE and
// speaking serial to them forever after, redialing once transparently
// when a pipe breaks mid-download.
//
// The zero-copy contract: LoadInto reads the LOAD body directly from the
// socket buffer into the caller's destination slice (a lors extent
// window over the final frame buffer), so a pipelined download writes
// each payload byte into process memory exactly once.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/wire"
)

// errSerialOnly reports that the depot answered the PIPELINE handshake
// with an error: it predates the verb or has pipelining disabled.
var errSerialOnly = errors.New("ibp: depot does not speak PIPELINE")

// pipeIdleTimeout is the reader watchdog: a pipe with requests in flight
// that sees no response bytes for this long is declared broken (the
// in-flight requests fail over through lors). An idle pipe just re-arms.
const pipeIdleTimeout = 30 * time.Second

const (
	waiterPending   = 0 // response not yet arrived, caller waiting
	waiterDelivered = 1 // reader claimed it and will deliver (possibly filling dst)
	waiterAbandoned = 2 // caller gave up (ctx done); reader discards the body
)

// pipeWaiter is one in-flight tagged request on a Pipe.
type pipeWaiter struct {
	dst   []byte // LOAD destination; reader fills it directly
	state atomic.Int32
	done  chan pipeResult // buffered(1): delivery never blocks the reader
}

type pipeResult struct {
	fields []string
	err    error
}

// Pipe is one pipelined connection to a depot. Safe for concurrent use;
// requests beyond the negotiated window block until a slot frees.
type Pipe struct {
	addr   string
	conn   net.Conn
	window int
	reg    *obs.Registry
	depth  *atomic.Int64 // shared with the owning pool, or private

	wmu sync.Mutex
	bw  *bufio.Writer

	mu      sync.Mutex
	waiters map[uint64]*pipeWaiter
	nextTag uint64
	broken  error

	slots chan struct{}
	done  chan struct{}
}

// DialPipe connects to addr, performs the PIPELINE handshake asking for
// the given window (0 means DefaultPipelineWindow), and returns the
// upgraded connection. A depot that answers the handshake with ERR
// yields errSerialOnly (the connection is gone; speak serial instead).
func DialPipe(ctx context.Context, addr string, dialer Dialer, window int, reg *obs.Registry) (*Pipe, error) {
	if window <= 0 {
		window = DefaultPipelineWindow
	}
	if reg == nil {
		reg = obs.Default()
	}
	d := dialer
	if d == nil {
		d = NetDialer{}
	}
	type dialResult struct {
		conn net.Conn
		err  error
	}
	ch := make(chan dialResult, 1)
	go func() {
		conn, err := d.Dial(addr)
		ch <- dialResult{conn, err}
	}()
	var conn net.Conn
	select {
	case <-ctx.Done():
		go func() {
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
		}()
		return nil, ctx.Err()
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		conn = r.conn
	}
	// The handshake is one bounded round trip on the fresh connection.
	hsDeadline := time.Now().Add(10 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(hsDeadline) {
		hsDeadline = d
	}
	_ = conn.SetDeadline(hsDeadline)
	if _, err := fmt.Fprintf(conn, "PIPELINE %d\n", window); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64*1024)
	line, err := wire.ReadLine(br, maxLineLen)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: reading PIPELINE response: %v", ErrProto, err)
	}
	f := strings.Fields(line)
	switch {
	case len(f) == 2 && f[0] == "OK":
		granted, err := strconv.Atoi(f[1])
		if err != nil || granted <= 0 {
			conn.Close()
			return nil, fmt.Errorf("%w: bad PIPELINE grant %q", ErrProto, line)
		}
		if granted > window {
			granted = window
		}
		_ = conn.SetDeadline(time.Time{})
		p := &Pipe{
			addr:    addr,
			conn:    conn,
			window:  granted,
			reg:     reg,
			depth:   new(atomic.Int64),
			bw:      bufio.NewWriterSize(conn, 64*1024),
			waiters: make(map[uint64]*pipeWaiter),
			slots:   make(chan struct{}, granted),
			done:    make(chan struct{}),
		}
		go p.readLoop(br)
		return p, nil
	case len(f) >= 1 && f[0] == "ERR":
		// Old-protocol depot ("unknown verb PIPELINE") or pipelining
		// disabled: either way, serial from here on.
		conn.Close()
		return nil, errSerialOnly
	default:
		conn.Close()
		return nil, fmt.Errorf("%w: unexpected PIPELINE response %q", ErrProto, line)
	}
}

// Window returns the negotiated in-flight window.
func (p *Pipe) Window() int { return p.window }

// Broken reports the pipe's terminal error, or nil while it is usable.
func (p *Pipe) Broken() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// Close tears the pipe down; in-flight requests fail with ErrPipeBroken.
func (p *Pipe) Close() error {
	p.fail(ErrPipeBroken)
	return nil
}

// fail marks the pipe broken exactly once, closes the connection, and
// fails every in-flight waiter.
func (p *Pipe) fail(err error) {
	p.mu.Lock()
	if p.broken != nil {
		p.mu.Unlock()
		return
	}
	p.broken = err
	ws := p.waiters
	p.waiters = make(map[uint64]*pipeWaiter)
	close(p.done)
	p.mu.Unlock()
	p.conn.Close()
	if n := len(ws); n > 0 {
		p.reg.Gauge(obs.MIBPPipeDepth).Set(p.depth.Add(int64(-n)))
	}
	for _, w := range ws {
		w.done <- pipeResult{err: err}
	}
}

// inflight reports how many requests await responses.
func (p *Pipe) inflight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiters)
}

// readLoop is the single reader: it matches tagged responses to waiters,
// fills LOAD destinations directly from the socket, and turns any
// protocol corruption or connection error into a pipe-wide failure.
func (p *Pipe) readLoop(br *bufio.Reader) {
	for {
		_ = p.conn.SetReadDeadline(time.Now().Add(pipeIdleTimeout))
		line, err := wire.ReadLine(br, maxLineLen)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && p.inflight() == 0 {
				// Idle watchdog tick: nothing owed, keep listening. (With
				// zero requests in flight the stream sits at a line
				// boundary, so no partial line can have been dropped.)
				continue
			}
			p.fail(fmt.Errorf("%w: %v", ErrPipeBroken, err))
			return
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			p.fail(fmt.Errorf("%w: short pipelined response %q", ErrPipeBroken, line))
			return
		}
		tag, ok := parseResponseTag(f[0])
		if !ok {
			p.fail(fmt.Errorf("%w: untagged response %q", ErrPipeBroken, line))
			return
		}
		p.mu.Lock()
		w := p.waiters[tag]
		delete(p.waiters, tag)
		p.mu.Unlock()
		if w == nil {
			p.fail(fmt.Errorf("%w: response for unknown tag %d", ErrPipeBroken, tag))
			return
		}
		res, bodyLen, perr := p.parseResponse(f[1:], w)
		if perr != nil {
			p.fail(perr)
			return
		}
		if bodyLen >= 0 {
			// Claim the waiter before touching its dst: a caller whose
			// ctx fired is racing to abandon it, and exactly one side
			// wins the CAS. Losing means the caller is gone and dst may
			// already be reused — discard the body off the wire instead.
			if res.err == nil && w.dst != nil && w.state.CompareAndSwap(waiterPending, waiterDelivered) {
				if _, err := io.ReadFull(br, w.dst[:bodyLen]); err != nil {
					p.depthDec()
					<-p.slots
					w.done <- pipeResult{err: fmt.Errorf("%w: reading body: %v", ErrPipeBroken, err)}
					p.fail(fmt.Errorf("%w: reading body: %v", ErrPipeBroken, err))
					return
				}
			} else if _, err := io.CopyN(io.Discard, br, int64(bodyLen)); err != nil {
				p.depthDec()
				<-p.slots
				w.done <- pipeResult{err: fmt.Errorf("%w: discarding body: %v", ErrPipeBroken, err)}
				p.fail(fmt.Errorf("%w: discarding body: %v", ErrPipeBroken, err))
				return
			}
		} else {
			w.state.CompareAndSwap(waiterPending, waiterDelivered)
		}
		p.depthDec()
		<-p.slots
		w.done <- res
	}
}

func (p *Pipe) depthDec() {
	p.reg.Gauge(obs.MIBPPipeDepth).Set(p.depth.Add(-1))
}

// parseResponse interprets one tagged status line for waiter w. bodyLen
// is >= 0 when a body follows on the wire (LOAD), -1 otherwise. A
// returned error means the stream cannot be trusted any more.
func (p *Pipe) parseResponse(f []string, w *pipeWaiter) (res pipeResult, bodyLen int, fatal error) {
	switch f[0] {
	case "OK":
		ok := f[1:]
		if w.dst == nil {
			return pipeResult{fields: ok}, -1, nil
		}
		if len(ok) < 1 {
			return pipeResult{}, 0, fmt.Errorf("%w: LOAD response missing length", ErrPipeBroken)
		}
		n, err := strconv.ParseInt(ok[0], 10, 64)
		if err != nil || n < 0 || n > maxTransfer {
			return pipeResult{}, 0, fmt.Errorf("%w: bad LOAD length", ErrPipeBroken)
		}
		if n != int64(len(w.dst)) {
			// Framed but wrong-sized: consume the body to stay in sync,
			// fail only this request.
			return pipeResult{err: fmt.Errorf("%w: LOAD returned %d of %d bytes", ErrProto, n, len(w.dst))},
				int(n), nil
		}
		return pipeResult{fields: ok}, int(n), nil
	case "ERR":
		if len(f) < 2 {
			return pipeResult{}, 0, fmt.Errorf("%w: malformed pipelined error", ErrPipeBroken)
		}
		msg := ""
		for i := 2; i < len(f); i++ {
			if i > 2 {
				msg += " "
			}
			msg += f[i]
		}
		return pipeResult{err: errOf(f[1], msg)}, -1, nil
	default:
		return pipeResult{}, 0, fmt.Errorf("%w: unexpected pipelined status %q", ErrPipeBroken, f[0])
	}
}

// observeOp mirrors Client.observeOp for pipelined operations, so serial
// and pipelined traffic feed the same per-verb and per-depot latency
// series — obs.DepotLatencyBias and the depot-latency SLO rules read the
// per-depot histogram and must keep seeing every operation when a client
// upgrades to pipelined mode. Latency includes time queued for a window
// slot: that is what the caller actually experienced.
func (p *Pipe) observeOp(ctx context.Context, verb string, elapsed time.Duration, sent, received int, err error) {
	ms := float64(elapsed) / 1e6
	tid := obs.TraceIDFrom(ctx)
	p.reg.Histogram(obs.Label(obs.MIBPOpMs, "op", verb), obs.LatencyBucketsMs...).ObserveTrace(ms, tid)
	p.reg.Histogram(obs.Label(obs.MIBPDepotMs, "depot", p.addr), obs.LatencyBucketsMs...).ObserveTrace(ms, tid)
	p.reg.Counter(obs.MIBPBytesOut).Add(int64(sent))
	p.reg.Counter(obs.MIBPBytesIn).Add(int64(received))
	if err != nil {
		p.reg.Counter(obs.Label(obs.MIBPOpErrors, "op", verb)).Inc()
	}
}

// do issues one tagged request and records its client-observed outcome.
// reqLine is the verb line without tokens or newline; payload follows it
// (STORE); dst, when non-nil, receives a LOAD body of exactly len(dst)
// bytes.
func (p *Pipe) do(ctx context.Context, reqLine string, payload, dst []byte) ([]string, error) {
	verb, _, _ := strings.Cut(reqLine, " ")
	start := time.Now()
	f, err := p.doTagged(ctx, reqLine, payload, dst)
	received := 0
	if err == nil && dst != nil {
		received = len(dst)
	}
	p.observeOp(ctx, verb, time.Since(start), len(payload), received, err)
	return f, err
}

// doTagged is the transport half of do: slot acquisition, tagged write,
// and response wait.
func (p *Pipe) doTagged(ctx context.Context, reqLine string, payload, dst []byte) ([]string, error) {
	select {
	case p.slots <- struct{}{}:
	case <-p.done:
		return nil, p.Broken()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	w := &pipeWaiter{dst: dst, done: make(chan pipeResult, 1)}
	p.mu.Lock()
	if p.broken != nil {
		err := p.broken
		p.mu.Unlock()
		return nil, err
	}
	p.nextTag++
	tag := p.nextTag
	p.waiters[tag] = w
	p.mu.Unlock()
	p.reg.Gauge(obs.MIBPPipeDepth).Set(p.depth.Add(1))
	// tag= rides before the optional deadline=/trace= tokens so servers
	// can strip right-to-left: trace, deadline, tag.
	line := fmt.Sprintf("%s tag=%d%s\n", reqLine, tag, obs.LineTokens(ctx))
	p.wmu.Lock()
	_, err := p.bw.WriteString(line)
	if err == nil && len(payload) > 0 {
		_, err = p.bw.Write(payload)
	}
	if err == nil {
		err = p.bw.Flush()
	}
	p.wmu.Unlock()
	if err != nil {
		p.fail(fmt.Errorf("%w: write: %v", ErrPipeBroken, err))
		res := <-w.done // fail() delivered our registered waiter
		return nil, res.err
	}
	select {
	case res := <-w.done:
		return res.fields, res.err
	case <-ctx.Done():
		if w.state.CompareAndSwap(waiterPending, waiterAbandoned) {
			// The reader will discard the body and release the slot
			// when the response eventually arrives (or the watchdog
			// breaks the pipe).
			return nil, ctx.Err()
		}
		// The reader already claimed the waiter and is filling dst;
		// wait out the delivery so the caller never races its own
		// buffer.
		res := <-w.done
		if res.err != nil {
			return nil, res.err
		}
		return res.fields, nil
	}
}

// Load reads exactly len(dst) bytes at offset through a read capability,
// directly into dst.
func (p *Pipe) Load(ctx context.Context, readCap string, offset int64, dst []byte) error {
	_, err := p.do(ctx, fmt.Sprintf("LOAD %s %d %d", readCap, offset, len(dst)), nil, dst)
	return err
}

// Store writes data at offset through a write capability.
func (p *Pipe) Store(ctx context.Context, writeCap string, offset int64, data []byte) error {
	_, err := p.do(ctx, fmt.Sprintf("STORE %s %d %d", writeCap, offset, len(data)), data, nil)
	return err
}

// Probe returns allocation metadata through a manage capability.
func (p *Pipe) Probe(ctx context.Context, manageCap string) (AllocInfo, error) {
	f, err := p.do(ctx, "PROBE "+manageCap, nil, nil)
	if err != nil {
		return AllocInfo{}, err
	}
	if len(f) != 3 {
		return AllocInfo{}, fmt.Errorf("%w: PROBE response fields", ErrProto)
	}
	size, err1 := strconv.ParseInt(f[0], 10, 64)
	expMs, err2 := strconv.ParseInt(f[1], 10, 64)
	if err1 != nil || err2 != nil {
		return AllocInfo{}, fmt.Errorf("%w: PROBE response numbers", ErrProto)
	}
	return AllocInfo{Size: size, Expires: time.UnixMilli(expMs), Policy: Policy(f[2])}, nil
}
