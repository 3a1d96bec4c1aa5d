package ibp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
	"lonviz/internal/wire"
)

// Client performs IBP operations against one depot address. Each operation
// opens its own connection, so independent operations parallelize across
// sockets (the LoRS download algorithms rely on this). Every operation
// takes a context: cancellation interrupts in-flight transfers (the
// connection deadline is yanked), and a context deadline tightens the
// per-operation timeout. The zero value is not usable; set Addr.
type Client struct {
	// Addr is the depot's host:port.
	Addr string
	// Dialer establishes connections; nil means plain TCP.
	Dialer Dialer
	// Timeout bounds one whole operation (default 30s). The effective
	// deadline is min(ctx deadline, now+Timeout).
	Timeout time.Duration
	// Obs receives per-operation latency histograms, byte counters, and
	// error counts; nil records into obs.Default(). See
	// docs/OBSERVABILITY.md for the ibp.* metric catalog.
	Obs *obs.Registry
}

// registry resolves the metrics destination.
func (c *Client) registry() *obs.Registry {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

// observeOp records one operation's outcome: latency into the per-verb
// and per-depot histograms (with the request's trace ID as the exemplar,
// so a slow tail links back to its merged trace), payload bytes into the
// direction counters, and failures into the per-verb error counter.
func (c *Client) observeOp(ctx context.Context, verb string, elapsed time.Duration, sent, received int, err error) {
	reg := c.registry()
	ms := float64(elapsed) / 1e6
	tid := obs.TraceIDFrom(ctx)
	reg.Histogram(obs.Label(obs.MIBPOpMs, "op", verb), obs.LatencyBucketsMs...).ObserveTrace(ms, tid)
	reg.Histogram(obs.Label(obs.MIBPDepotMs, "depot", c.Addr), obs.LatencyBucketsMs...).ObserveTrace(ms, tid)
	reg.Counter(obs.MIBPBytesOut).Add(int64(sent))
	reg.Counter(obs.MIBPBytesIn).Add(int64(received))
	if err != nil {
		reg.Counter(obs.Label(obs.MIBPOpErrors, "op", verb)).Inc()
	}
}

// dial connects and arms the operation deadline. The dial itself runs in a
// goroutine so a cancelled context abandons (and closes) a slow connect
// instead of waiting it out.
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := c.Dialer
	if d == nil {
		d = NetDialer{}
	}
	type dialResult struct {
		conn net.Conn
		err  error
	}
	ch := make(chan dialResult, 1)
	go func() {
		conn, err := d.Dial(c.Addr)
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
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	if ctxDeadline, ok := ctx.Deadline(); ok && ctxDeadline.Before(deadline) {
		deadline = ctxDeadline
	}
	_ = conn.SetDeadline(deadline)
	return conn, nil
}

// roundTrip sends one request (line + optional payload) and parses the
// response status line. Context cancellation mid-operation forces the
// connection deadline into the past, which unblocks any in-flight read or
// write; the operation then reports ctx.Err().
func (c *Client) roundTrip(ctx context.Context, req string, payload []byte) (fields []string, body []byte, err error) {
	return c.roundTripInto(ctx, req, payload, nil)
}

// roundTripInto is roundTrip with an optional caller-provided LOAD
// destination: with dst non-nil the response body is read directly into
// it (and must be exactly len(dst) bytes), eliminating the per-load
// allocation and copy.
func (c *Client) roundTripInto(ctx context.Context, req string, payload, dst []byte) (fields []string, body []byte, err error) {
	verb := req
	if i := strings.IndexAny(req, " \n"); i >= 0 {
		verb = req[:i]
	}
	// Propagate the caller's context as optional trailing tokens: a
	// deadline=<ms> remaining-budget token (overload control: the depot
	// drops work whose client has moved on) and a trace=<tid>/<sid> token
	// (tracing). LineTokens returns "" (no allocation) when propagation
	// is off or ctx carries neither, so unpropagated deployments send
	// byte-identical request lines to pre-propagation ones.
	if toks := obs.LineTokens(ctx); toks != "" {
		if n := len(req); n > 0 && req[n-1] == '\n' {
			req = req[:n-1] + toks + "\n"
		}
	}
	start := time.Now()
	defer func() {
		c.observeOp(ctx, verb, time.Since(start), len(payload), len(body), err)
	}()
	// CPU attribution: client-side depot I/O shows up in profiles sliced
	// by {class=ibp_client, verb, depot}, so a slow depot is identifiable
	// from the caller's own capture bundle.
	lctx := prof.Begin3(ctx, prof.KeyClass, "ibp_client",
		prof.KeyVerb, verb, prof.KeyDepot, c.Addr)
	defer prof.End(ctx)
	ctx = lctx
	conn, err := c.dial(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	opDone := make(chan struct{})
	defer close(opDone)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.SetDeadline(time.Unix(1, 0))
		case <-opDone:
		}
	}()
	fields, body, err = c.exchange(conn, req, payload, dst)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, nil, ctxErr
		}
		return nil, nil, err
	}
	return fields, body, nil
}

// exchange performs the wire conversation on an established connection.
func (c *Client) exchange(conn net.Conn, req string, payload, dst []byte) ([]string, []byte, error) {
	bw := bufio.NewWriterSize(conn, 64*1024)
	if _, err := bw.WriteString(req); err != nil {
		return nil, nil, err
	}
	if len(payload) > 0 {
		if _, err := bw.Write(payload); err != nil {
			return nil, nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(conn, 64*1024)
	line, err := wire.ReadLine(br, maxLineLen)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: reading response: %v", ErrProto, err)
	}
	f := strings.Fields(line)
	if len(f) == 0 {
		return nil, nil, fmt.Errorf("%w: empty response", ErrProto)
	}
	switch f[0] {
	case "OK":
		// Responses with a body declare its length as the first OK field
		// only for LOAD; the caller decides whether to read a body.
		var body []byte
		if err := c.maybeReadBody(br, req, f[1:], dst, &body); err != nil {
			return nil, nil, err
		}
		return f[1:], body, nil
	case "ERR":
		if len(f) < 2 {
			return nil, nil, fmt.Errorf("%w: malformed error", ErrProto)
		}
		msg := ""
		if len(f) > 2 {
			for i := 2; i < len(f); i++ {
				if i > 2 {
					msg += " "
				}
				msg += f[i]
			}
		}
		return nil, nil, errOf(f[1], msg)
	default:
		return nil, nil, fmt.Errorf("%w: unexpected response %q", ErrProto, f[0])
	}
}

// maybeReadBody reads the binary body for verbs that have one (LOAD).
// With dst non-nil the body lands directly in the caller's buffer (and
// its length must match exactly) instead of a fresh allocation.
func (c *Client) maybeReadBody(br *bufio.Reader, req string, okFields []string, dst []byte, out *[]byte) error {
	if len(req) < 4 || req[:4] != "LOAD" {
		return nil
	}
	if len(okFields) < 1 {
		return fmt.Errorf("%w: LOAD response missing length", ErrProto)
	}
	n, err := strconv.ParseInt(okFields[0], 10, 64)
	if err != nil || n < 0 || n > maxTransfer {
		return fmt.Errorf("%w: bad LOAD length", ErrProto)
	}
	buf := dst
	if buf == nil {
		buf = make([]byte, n)
	} else if n != int64(len(dst)) {
		return fmt.Errorf("%w: LOAD returned %d of %d bytes", ErrProto, n, len(dst))
	}
	if _, err := io.ReadFull(br, buf); err != nil {
		return fmt.Errorf("%w: reading LOAD body: %v", ErrProto, err)
	}
	*out = buf
	return nil
}

// Allocate requests an allocation on the depot.
func (c *Client) Allocate(ctx context.Context, size int64, lease time.Duration, policy Policy) (Capabilities, error) {
	f, _, err := c.roundTrip(ctx, fmt.Sprintf("ALLOCATE %d %d %s\n", size, lease.Milliseconds(), policy), nil)
	if err != nil {
		return Capabilities{}, err
	}
	if len(f) != 3 {
		return Capabilities{}, fmt.Errorf("%w: ALLOCATE response fields", ErrProto)
	}
	return Capabilities{Read: f[0], Write: f[1], Manage: f[2]}, nil
}

// Store writes data at offset through a write capability.
func (c *Client) Store(ctx context.Context, writeCap string, offset int64, data []byte) error {
	_, _, err := c.roundTrip(ctx, fmt.Sprintf("STORE %s %d %d\n", writeCap, offset, len(data)), data)
	return err
}

// Load reads length bytes at offset through a read capability.
func (c *Client) Load(ctx context.Context, readCap string, offset, length int64) ([]byte, error) {
	_, body, err := c.roundTrip(ctx, fmt.Sprintf("LOAD %s %d %d\n", readCap, offset, length), nil)
	if err != nil {
		return nil, err
	}
	if int64(len(body)) != length {
		return nil, fmt.Errorf("%w: LOAD returned %d of %d bytes", ErrProto, len(body), length)
	}
	return body, nil
}

// LoadInto reads exactly len(dst) bytes at offset through a read
// capability, directly into dst — the zero-copy serial load (the
// pipelined equivalent lives on Pipe/PipePool).
func (c *Client) LoadInto(ctx context.Context, readCap string, offset int64, dst []byte) error {
	_, _, err := c.roundTripInto(ctx, fmt.Sprintf("LOAD %s %d %d\n", readCap, offset, len(dst)), nil, dst)
	return err
}

// Probe returns allocation metadata through a manage capability.
func (c *Client) Probe(ctx context.Context, manageCap string) (AllocInfo, error) {
	f, _, err := c.roundTrip(ctx, fmt.Sprintf("PROBE %s\n", manageCap), nil)
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

// Extend renews the allocation lease.
func (c *Client) Extend(ctx context.Context, manageCap string, lease time.Duration) (time.Time, error) {
	f, _, err := c.roundTrip(ctx, fmt.Sprintf("EXTEND %s %d\n", manageCap, lease.Milliseconds()), nil)
	if err != nil {
		return time.Time{}, err
	}
	if len(f) != 1 {
		return time.Time{}, fmt.Errorf("%w: EXTEND response fields", ErrProto)
	}
	ms, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("%w: EXTEND response number", ErrProto)
	}
	return time.UnixMilli(ms), nil
}

// Free releases the allocation immediately.
func (c *Client) Free(ctx context.Context, manageCap string) error {
	_, _, err := c.roundTrip(ctx, fmt.Sprintf("FREE %s\n", manageCap), nil)
	return err
}

// Copy asks this depot to transfer an extent directly to a write
// capability on another depot (third-party copy).
func (c *Client) Copy(ctx context.Context, readCap string, offset, length int64, targetAddr, targetWriteCap string, targetOffset int64) error {
	_, _, err := c.roundTrip(ctx, fmt.Sprintf("COPY %s %d %d %s %s %d\n",
		readCap, offset, length, targetAddr, targetWriteCap, targetOffset), nil)
	return err
}

// Status returns the depot's capacity accounting.
func (c *Client) Status(ctx context.Context) (capacity, used int64, allocations int, err error) {
	f, _, err := c.roundTrip(ctx, "STATUS\n", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(f) != 3 {
		return 0, 0, 0, fmt.Errorf("%w: STATUS response fields", ErrProto)
	}
	capacity, err1 := strconv.ParseInt(f[0], 10, 64)
	used, err2 := strconv.ParseInt(f[1], 10, 64)
	allocs, err3 := strconv.Atoi(f[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, fmt.Errorf("%w: STATUS response numbers", ErrProto)
	}
	return capacity, used, allocs, nil
}
