package edge

// Pipelined (tagged multiplexed) mode for the edge server. The edge
// speaks the same PIPELINE handshake and framing as depots, so the
// client agent's PipePool treats an edge address exactly like a depot
// address: one persistent connection, all stripes of a view set in
// flight at once. Every edge verb is payload-free, which makes this loop
// a strict simplification of the depot's — nothing to consume before
// dispatch, and sheds always keep the connection.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"lonviz/internal/ibp"
	"lonviz/internal/obs"
	"lonviz/internal/overload"
)

// pipelineGrant validates a PIPELINE handshake, returning the granted
// window or a refusal message (sent as ERR PROTO → client goes serial).
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
		max = ibp.DefaultPipelineWindow
	}
	return min(req, max), ""
}

// tagWriter serializes tagged responses onto one connection.
type tagWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

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

// servePipelined runs the tagged loop until the client hangs up or
// commits a protocol error.
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
		f := strings.Fields(line)
		f, tc, traced := obs.StripTraceToken(f)
		f, budget, hasBudget := obs.StripDeadlineToken(f)
		f, tag, tagged := ibp.StripTagToken(f)
		if !tagged || len(f) == 0 {
			return // untagged request on a pipelined connection: fatal
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(f []string, tag uint64, tc obs.TraceContext, traced bool,
			budget time.Duration, hasBudget bool) {
			defer wg.Done()
			defer func() { <-slots }()
			s.servePipelinedOne(tw, reg, c, f, tag, tc, traced, budget, hasBudget)
		}(f, tag, tc, traced, budget, hasBudget)
	}
}

func (s *Server) servePipelinedOne(tw *tagWriter, reg *obs.Registry, c net.Conn,
	f []string, tag uint64, tc obs.TraceContext, traced bool,
	budget time.Duration, hasBudget bool) {
	verb := f[0]
	var span *obs.Span
	sctx := context.Background()
	if traced {
		sctx, span = s.tracer().StartSpan(obs.ContextWithRemote(sctx, tc), obs.SpanEdgeServe)
		span.SetAttr("op", verb)
		span.SetAttr("peer", c.RemoteAddr().String())
	}
	rctx, cancel := obs.DeadlineContext(sctx, budget, hasBudget)
	start := time.Now()
	var head, body []byte
	release, admitErr := s.acquire(rctx, reg)
	if admitErr != nil {
		reason := overload.Reason(admitErr)
		reg.Counter(obs.Label(obs.MEdgeShed, "reason", reason)).Inc()
		obs.DefaultLogger().Warn(context.Background(), obs.EvShed,
			"component", "edge", "reason", reason, "op", verb)
		head = errCodeLine(codeBusy, reason)
	} else {
		head, body = s.execTagged(rctx, f)
		release()
	}
	cancel()
	if bytes.HasPrefix(head, []byte("ERR")) {
		span.SetAttr("err", "1")
	}
	span.Finish()
	err := tw.write(tag, head, body)
	reg.Histogram(obs.Label(obs.MEdgeServeMs, "op", verb), obs.LatencyBucketsMs...).
		Observe(float64(time.Since(start)) / 1e6)
	if err != nil {
		c.Close()
	}
}

// execTagged executes one pipelined request. The LOAD body is the cached
// entry itself (immutable once published), written straight to the
// socket with no intermediate buffer.
func (s *Server) execTagged(ctx context.Context, f []string) (head, body []byte) {
	switch f[0] {
	case "LOAD":
		if len(f) != 4 {
			return errCodeLine(codeProto, "LOAD wants 3 args"), nil
		}
		offset, err1 := strconv.ParseInt(f[2], 10, 64)
		length, err2 := strconv.ParseInt(f[3], 10, 64)
		if err1 != nil || err2 != nil || length < 0 || length > maxTransfer {
			return errCodeLine(codeProto, "bad LOAD numbers"), nil
		}
		cp, ok := ParseCap(f[1])
		if !ok {
			return errCodeLine(codeNoCap, "not an edge composite capability"), nil
		}
		data, _, err := s.Cache.Load(ctx, cp, offset, length)
		if err != nil {
			return errCodeLine(codeInternal, "fill: "+err.Error()), nil
		}
		return []byte(fmt.Sprintf("OK %d\n", len(data))), data
	case "STATUS":
		if len(f) != 1 {
			return errCodeLine(codeProto, "STATUS wants no args"), nil
		}
		st := s.Cache.Stats()
		return []byte(fmt.Sprintf("OK %d %d %d\n", st.Capacity, st.Used, st.Entries)), nil
	default:
		return errCodeLine(codeProto, "unknown verb "+f[0]), nil
	}
}

// errCodeLine renders one "ERR <CODE> <msg>\n" response as bytes.
func errCodeLine(code, msg string) []byte {
	var buf bytes.Buffer
	writeErrCode(&buf, code, msg)
	return buf.Bytes()
}
