package ibp

// Pipelined (tagged multiplexed) server mode. A client that negotiates
// PIPELINE keeps one connection open and issues many requests without
// waiting for responses; the server executes up to the granted window
// concurrently and writes responses back tagged, in whatever order they
// finish. Payload-bearing requests (STORE) are consumed synchronously in
// the reader loop, so the byte stream stays framed no matter how
// execution interleaves — which is also what lets admission-control
// sheds answer with a tagged ERR BUSY and KEEP the connection, where the
// serial loop has to hang up.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
	"lonviz/internal/overload"
)

// pipelineGrant validates a PIPELINE handshake and returns the granted
// window, or a non-empty refusal message (sent as ERR PROTO, which
// old-and-new clients alike read as "serial only").
func (s *Server) pipelineGrant(f []string) (int, string) {
	if s.PipelineWindow < 0 {
		return 0, "pipelining disabled"
	}
	if len(f) != 2 {
		return 0, "PIPELINE wants 1 arg"
	}
	req, err := strconv.Atoi(f[1])
	if err != nil || req <= 0 {
		return 0, "bad PIPELINE window"
	}
	max := s.PipelineWindow
	if max == 0 {
		max = DefaultPipelineWindow
	}
	granted := min(req, max, maxPipelineWindow)
	return granted, ""
}

// tagWriter serializes tagged responses from concurrently-finishing
// request goroutines onto one connection.
type tagWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// write emits one "T<tag> <head>[body]" response and flushes. head must
// end with \n. The first write error sticks and poisons the writer.
func (w *tagWriter) write(tag uint64, head, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	fmt.Fprintf(w.bw, "T%d ", tag)
	if _, err := w.bw.Write(head); err != nil {
		w.err = err
		return err
	}
	if len(body) > 0 {
		if _, err := w.bw.Write(body); err != nil {
			w.err = err
			return err
		}
	}
	w.err = w.bw.Flush()
	return w.err
}

// servePipelined runs the tagged multiplexed loop on an upgraded
// connection until the client hangs up or commits a protocol error.
func (s *Server) servePipelined(c net.Conn, br *bufio.Reader, window int) {
	reg := s.registry()
	tw := &tagWriter{bw: bufio.NewWriterSize(c, 64*1024)}
	slots := make(chan struct{}, window)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		line, err := readLine(br)
		if err != nil {
			return
		}
		// Strip order mirrors emission order (tag, then deadline, then
		// trace, reading the line right to left): trace= is last on the
		// wire, deadline= before it, tag= before both.
		f := parseFields(line)
		f, tc, traced := obs.StripTraceToken(f)
		f, budget, hasBudget := obs.StripDeadlineToken(f)
		f, tag, tagged := StripTagToken(f)
		if !tagged || len(f) == 0 {
			// An untagged request on a pipelined connection cannot even
			// be answered addressably; drop the connection so the
			// client resynchronizes by redialing.
			return
		}
		// STORE payloads are consumed here, in order, so stream framing
		// never depends on execution order. The parse must succeed
		// before the payload length is known; a malformed STORE is
		// protocol-fatal exactly like in serial mode.
		var payload []byte
		var storeOffset int64
		if f[0] == "STORE" {
			if len(f) != 4 {
				tw.write(tag, errRespLine(ErrProto, "STORE wants 3 args"), nil)
				return
			}
			offset, err1 := strconv.ParseInt(f[2], 10, 64)
			length, err2 := strconv.ParseInt(f[3], 10, 64)
			if err1 != nil || err2 != nil || length < 0 || length > maxTransfer {
				tw.write(tag, errRespLine(ErrProto, "bad STORE numbers"), nil)
				return
			}
			storeOffset = offset
			payload = bufpool.Get(int(length))
			if _, err := io.ReadFull(br, payload); err != nil {
				bufpool.Put(payload)
				return
			}
		}
		// Window backpressure: past the granted window the reader stops
		// pulling requests, which backs up into the client's TCP stream
		// and ultimately blocks its sender — the client-side Pipe also
		// bounds itself, so this only bites misbehaving clients.
		slots <- struct{}{}
		wg.Add(1)
		go func(f []string, tag uint64, storeOffset int64, payload []byte,
			tc obs.TraceContext, traced bool, budget time.Duration, hasBudget bool) {
			defer wg.Done()
			defer func() { <-slots }()
			s.servePipelinedOne(tw, reg, c, f, tag, storeOffset, payload, tc, traced, budget, hasBudget)
		}(f, tag, storeOffset, payload, tc, traced, budget, hasBudget)
	}
}

// servePipelinedOne executes one tagged request and writes its response.
func (s *Server) servePipelinedOne(tw *tagWriter, reg *obs.Registry, c net.Conn,
	f []string, tag uint64, storeOffset int64, payload []byte,
	tc obs.TraceContext, traced bool, budget time.Duration, hasBudget bool) {
	if payload != nil {
		defer bufpool.Put(payload)
	}
	verb := f[0]
	var span *obs.Span
	sctx := context.Background()
	if traced {
		sctx, span = s.tracer().StartSpan(obs.ContextWithRemote(sctx, tc), obs.SpanIBPServe)
		span.SetAttr("op", verb)
		span.SetAttr("peer", c.RemoteAddr().String())
	}
	rctx, cancel := obs.DeadlineContext(sctx, budget, hasBudget)
	start := time.Now()
	var head, body []byte
	release, admitErr := s.acquire(rctx, reg)
	if admitErr != nil {
		// Unlike the serial loop, a pipelined shed keeps the connection:
		// any payload is already consumed, so the stream is still
		// framed and the other in-flight requests are unaffected.
		reason := overload.Reason(admitErr)
		reg.Counter(obs.Label(obs.MIBPShed, "reason", reason)).Inc()
		obs.DefaultLogger().Warn(context.Background(), obs.EvShed,
			"component", "ibp", "reason", reason, "op", verb)
		head = errRespLine(ErrBusy, reason)
	} else {
		// Same CPU attribution as the serial loop; here the label also
		// tags the worker goroutine in goroutine dumps, so a stuck
		// pipelined request names its verb in a capture bundle.
		lctx := prof.Begin2(rctx, prof.KeyClass, "ibp", prof.KeyVerb, verb)
		head, body = s.execTagged(lctx, f, storeOffset, payload)
		prof.End(rctx)
		release()
	}
	cancel()
	// As in the serial loop, the span is exported before the reply leaves.
	if bytes.HasPrefix(head, []byte("ERR")) {
		reg.Counter(obs.Label(obs.MIBPServerErrors, "op", verb)).Inc()
		span.SetAttr("err", "1")
		obs.DefaultLogger().Warn(sctx, obs.EvIBPServeErr,
			"op", verb, "peer", c.RemoteAddr().String())
	}
	span.Finish()
	err := tw.write(tag, head, body)
	if body != nil {
		bufpool.Put(body)
	}
	reg.Histogram(obs.Label(obs.MIBPServerOpMs, "op", verb), obs.LatencyBucketsMs...).
		Observe(float64(time.Since(start)) / 1e6)
	if err != nil {
		c.Close() // poisoned writer: tear the pipe down, client redials
	}
}

// execTagged executes one pipelined request, returning the response head
// (status line, \n-terminated) and an optional pooled LOAD body that the
// caller must bufpool.Put after writing.
func (s *Server) execTagged(ctx context.Context, f []string, storeOffset int64, payload []byte) (head, body []byte) {
	if f[0] == "LOAD" {
		return s.execLoad(f)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 256)
	switch f[0] {
	case "ALLOCATE":
		s.doAllocate(bw, f)
	case "STORE":
		s.doStoreData(bw, f, storeOffset, payload)
	case "PROBE":
		s.doProbe(bw, f)
	case "EXTEND":
		s.doExtend(bw, f)
	case "FREE":
		s.doFree(bw, f)
	case "COPY":
		s.doCopy(ctx, bw, f)
	case "STATUS":
		s.doStatus(bw, f)
	default:
		writeErr(bw, ErrProto, "unknown verb "+f[0])
	}
	bw.Flush()
	return buf.Bytes(), nil
}

// execLoad is doLoad for the pipelined path: the body comes back as a
// separate pooled buffer so it is written to the socket exactly once,
// with no intermediate response buffer.
func (s *Server) execLoad(f []string) (head, body []byte) {
	if len(f) != 4 {
		return errRespLine(ErrProto, "LOAD wants 3 args"), nil
	}
	offset, err1 := strconv.ParseInt(f[2], 10, 64)
	length, err2 := strconv.ParseInt(f[3], 10, 64)
	if err1 != nil || err2 != nil || length < 0 || length > maxTransfer {
		return errRespLine(ErrProto, "bad LOAD numbers"), nil
	}
	data := bufpool.Get(int(length))
	if err := s.Depot.LoadInto(f[1], offset, data); err != nil {
		bufpool.Put(data)
		return errRespLine(err, ""), nil
	}
	return []byte(fmt.Sprintf("OK %d\n", len(data))), data
}

// errRespLine renders one "ERR <CODE> <msg>\n" response as bytes.
func errRespLine(err error, context string) []byte {
	var buf bytes.Buffer
	writeErr(&buf, err, context)
	return buf.Bytes()
}
