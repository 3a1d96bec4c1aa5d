package main

// Wrappers around the interfaces the program already accepts. They are the
// only instrumentation the benchmark has: nothing is added inside
// internal/*. Untraced, a wrapper only counts (one atomic add per call);
// traced, it also reads the clock and records spans.

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
	"lonviz/internal/netsim"
)

const (
	near = iota
	far
	numRoutes
)

var routeNames = [numRoutes]string{"near", "far"}

// The counters of a netMeter. The per-route ones come in near, far order,
// so counter + route indexes them.
const (
	ctrBytes       = iota // bytes read + written through metered conns, near
	_                     // … far
	ctrReadWaitNs         // time blocked in Read inside an op (traced only), near
	_                     // … far
	ctrOriginBytes        // what left the server depots and the DVS: bytes clients read from them plus bytes they wrote in third-party copies
	ctrDepotDials
	ctrDepotDialNs
	ctrDVSDials
	numCounters
)

// netMeter holds what the dialer and conn wrappers of one deployment count;
// netCounts is a reading of it.
type (
	netMeter  [numCounters]atomic.Int64
	netCounts [numCounters]int64
)

func (m *netMeter) snapshot() (c netCounts) {
	for i := range m {
		c[i] = m[i].Load()
	}
	return c
}

func (c netCounts) sub(o netCounts) netCounts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// meterDialer wraps a netsim.Dialer (it satisfies ibp.Dialer and
// dvs.Dialer). rec is nil on untraced passes; sc is the scope of the
// client the dialer belongs to, nil for the depots' copy dialer.
type meterDialer struct {
	inner *netsim.Dialer
	m     *netMeter
	rec   *recorder
	sc    *scope
	// origin holds the server depots and the DVS. originWrites marks the
	// dialer the server depots use for third-party copies: there the
	// payload leaves the origin as writes.
	origin       map[string]bool
	originWrites bool
	dvsAddr      string
}

// readWaitSpanFloor keeps reads that did not block out of the trace; the
// wait counters still include them.
const readWaitSpanFloor = 200 * time.Microsecond

func (d *meterDialer) Dial(addr string) (net.Conn, error) {
	route := near
	if d.inner.RouteTo(addr).Latency >= time.Millisecond {
		route = far
	}
	start := time.Now()
	c, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	name := "ibp.dial"
	if addr == d.dvsAddr {
		name = "dvs.dial"
		d.m[ctrDVSDials].Add(1)
	} else {
		d.m[ctrDepotDials].Add(1)
		d.m[ctrDepotDialNs].Add(int64(end.Sub(start)))
	}
	d.rec.leaf(d.sc, name, start, end)
	return &meterConn{
		Conn: c, m: d.m, rec: d.rec, sc: d.sc, route: route,
		originReads:  d.origin[addr] && !d.originWrites,
		originWrites: d.originWrites,
		ibp:          addr != d.dvsAddr,
	}, nil
}

type meterConn struct {
	net.Conn
	m                         *netMeter
	rec                       *recorder
	sc                        *scope
	route                     int
	originReads, originWrites bool

	// On traced passes the requests written to a depot are counted by verb
	// and size. line and skip are the scanner's state: the request line
	// read so far, and the STORE payload bytes still to pass over. Both
	// IBP clients write one request at a time to a connection.
	ibp  bool
	line []byte
	skip int
}

func (c *meterConn) Read(b []byte) (int, error) {
	if c.rec == nil {
		n, err := c.Conn.Read(b)
		c.count(n, c.originReads)
		return n, err
	}
	start := time.Now()
	n, err := c.Conn.Read(b)
	end := time.Now()
	c.count(n, c.originReads)
	// A persistent connection's reader blocks in Read between requests
	// too. Only the part of a wait that lies inside an op of this client
	// counts: a read that returns while no op is open served background
	// work or nothing at all.
	if since, open := c.sc.opStart(); open && n > 0 {
		if since.After(start) {
			start = since
		}
		c.m[ctrReadWaitNs+c.route].Add(int64(end.Sub(start)))
		if end.Sub(start) >= readWaitSpanFloor {
			c.rec.leaf(c.sc, "net.read_wait."+routeNames[c.route], start, end)
		}
	}
	return n, err
}

func (c *meterConn) count(n int, origin bool) {
	c.m[ctrBytes+c.route].Add(int64(n))
	if origin {
		c.m[ctrOriginBytes].Add(int64(n))
	}
}

func (c *meterConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.count(n, c.originWrites)
	if c.rec != nil && c.ibp {
		c.scanRequests(b[:n])
	}
	return n, err
}

// scanRequests follows the IBP request stream — "VERB args...\n", a STORE
// followed by its payload — and counts each request under "VERB <bytes>",
// the bytes being the extent a LOAD, STORE or COPY moves or an ALLOCATE
// reserves.
func (c *meterConn) scanRequests(b []byte) {
	for len(b) > 0 {
		if c.skip > 0 {
			k := min(c.skip, len(b))
			c.skip, b = c.skip-k, b[k:]
			continue
		}
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			c.line = append(c.line, b...)
			return
		}
		f := strings.Fields(string(append(c.line, b[:i]...)))
		c.line, b = c.line[:0], b[i+1:]
		if len(f) == 0 {
			continue
		}
		size := 0
		switch {
		case f[0] == "ALLOCATE" && len(f) > 1:
			size, _ = strconv.Atoi(f[1])
		case (f[0] == "LOAD" || f[0] == "STORE" || f[0] == "COPY") && len(f) > 3:
			size, _ = strconv.Atoi(f[3])
		}
		if f[0] == "STORE" {
			c.skip = size
		}
		c.rec.request(fmt.Sprintf("%s %d", f[0], size))
	}
}

// sourceProxy stands between a viewer and its client agent on traced
// passes and records one agent.fetch span per view-set request: from the
// call into the agent until the transfer's report is final.
type sourceProxy struct {
	ca  *agent.ClientAgent
	rec *recorder
	sc  *scope

	// op and parent identify the op span the viewer is inside; the op
	// loop sets them before MoveTo. pending lets the loop wait for the
	// report goroutine before it closes the op.
	op, parent int
	pending    sync.WaitGroup
	fetchEnd   time.Time
}

func (s *sourceProxy) OnUserMove(sp geom.Spherical) { s.ca.OnUserMove(sp) }

// fetchDone closes the agent.fetch span and hands the scope back to the op.
func (s *sourceProxy) fetchDone(spanID, op, parent int, start time.Time) {
	s.fetchEnd = time.Now()
	s.sc.set(op, parent)
	s.rec.close(spanID, parent, op, "agent.fetch", start, s.fetchEnd)
}

func (s *sourceProxy) GetViewSet(ctx context.Context, id lightfield.ViewSetID) ([]byte, agent.AccessReport, error) {
	start := time.Now()
	spanID := s.rec.open()
	s.sc.set(s.op, spanID)
	frame, rep, err := s.ca.GetViewSet(ctx, id)
	s.fetchDone(spanID, s.op, s.parent, start)
	return frame, rep, err
}

// GetViewSetStream keeps the viewer on its streaming path (it type-asserts
// its source for this method).
func (s *sourceProxy) GetViewSetStream(ctx context.Context, id lightfield.ViewSetID) (*agent.ViewSetStream, error) {
	start := time.Now()
	spanID := s.rec.open()
	s.sc.set(s.op, spanID)
	st, err := s.ca.GetViewSetStream(ctx, id)
	if err != nil {
		s.sc.set(s.op, s.parent)
		return nil, err
	}
	op, parent := s.op, s.parent
	s.pending.Add(1)
	go func() {
		defer s.pending.Done()
		_, _ = st.Report() // blocks until the transfer is final; the viewer reads the result itself
		s.fetchDone(spanID, op, parent, start)
	}()
	return st, nil
}

// digestGenerator wraps the server agent's generator and keeps a digest of
// the pixels it produced, which the correctness pass compares with what a
// client decodes after the round trip through encode, upload, download and
// decode.
type digestGenerator struct {
	inner lightfield.Generator

	mu      sync.Mutex
	digests map[lightfield.ViewSetID]uint32
}

func (g *digestGenerator) Params() lightfield.Params { return g.inner.Params() }

func (g *digestGenerator) GenerateViewSet(ctx context.Context, id lightfield.ViewSetID) (*lightfield.ViewSet, error) {
	vs, err := g.inner.GenerateViewSet(ctx, id)
	if err != nil {
		return nil, err
	}
	d := pixelDigest(vs)
	g.mu.Lock()
	g.digests[id] = d
	g.mu.Unlock()
	return vs, nil
}

func pixelDigest(vs *lightfield.ViewSet) uint32 {
	var d uint32
	for _, im := range vs.Views {
		d = crc32.Update(d, crc32.IEEETable, im.Pix)
	}
	return d
}
