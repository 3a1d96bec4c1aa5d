package agent

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/wire"
)

// The client <-> client agent protocol (the paper runs them on separate
// machines in the department LAN):
//
//	GETVS <dataset> <rRRcCC>  -> OK <class> <len>\n<frame> | ERR <msg>
//	MOVE <theta> <phi>        -> OK
//	STATS                     -> OK <hits> <lan> <wan> <staged>

// ClientAgentServer exposes a ClientAgent to remote clients over TCP. One
// client agent can serve multiple clients (paper section 3.5), which is
// why requests are handled concurrently per connection.
type ClientAgentServer struct {
	Agent   *ClientAgent
	Dataset string

	loop *wire.Server
}

// NewClientAgentServer wraps an agent for network service.
func NewClientAgentServer(ca *ClientAgent, dataset string) (*ClientAgentServer, error) {
	if ca == nil {
		return nil, fmt.Errorf("agent: nil client agent")
	}
	if dataset == "" {
		return nil, fmt.Errorf("agent: empty dataset")
	}
	s := &ClientAgentServer{Agent: ca, Dataset: dataset}
	s.loop = wire.NewServer(wire.Service{
		Names: wire.Names{Component: "clientagent"},
		Verbs: map[string]wire.Verb{
			"GETVS": {Handle: s.doGetVS},
			"MOVE":  {Handle: s.doMove},
			"STATS": {Handle: s.doStats},
		},
		LineCap: 1024,
		Refuse:  func(string) string { return "ERR bad request" },
	}, func() wire.Settings { return wire.Settings{} })
	return s, nil
}

// ListenAndServe starts serving on addr and returns the bound address.
func (s *ClientAgentServer) ListenAndServe(addr string) (string, error) {
	return s.loop.ListenAndServe(addr)
}

// Serve serves on l until Close.
func (s *ClientAgentServer) Serve(l net.Listener) error { return s.loop.Serve(l) }

// Close stops the listener and closes the accepted connections.
func (s *ClientAgentServer) Close() error { return s.loop.Close() }

func badRequest(r *wire.Reply) bool {
	r.Line("ERR bad request")
	return false
}

func (s *ClientAgentServer) doGetVS(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 3 {
		return badRequest(r)
	}
	if f[1] != s.Dataset {
		r.Line("ERR unknown dataset " + f[1])
		return true
	}
	id, err := ParseViewSetKey(f[2])
	if err != nil {
		r.Line("ERR " + wire.OneLine(err.Error()))
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	frame, rep, err := s.Agent.GetViewSet(ctx, id)
	cancel()
	if err != nil {
		r.Line("ERR " + wire.OneLine(err.Error()))
		return true
	}
	fmt.Fprintf(r, "OK %s %d\n", rep.Class, len(frame))
	r.Body(frame)
	return true
}

func (s *ClientAgentServer) doMove(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 3 {
		return badRequest(r)
	}
	theta, err1 := strconv.ParseFloat(f[1], 64)
	phi, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		r.Line("ERR bad angles")
		return true
	}
	s.Agent.OnUserMove(geom.Spherical{Theta: theta, Phi: phi})
	r.Line("OK")
	return true
}

func (s *ClientAgentServer) doStats(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	if len(req.Fields) != 1 {
		return badRequest(r)
	}
	st := s.Agent.Stats()
	fmt.Fprintf(r, "OK %d %d %d %d\n", st.Hits, st.LANFetches, st.WANFetches, st.Staged)
	return true
}

// RemoteSource is a ViewSetSource backed by a remote client agent. It
// keeps one persistent connection per concurrent request via a small pool.
type RemoteSource struct {
	Addr    string
	Dataset string
	Dialer  ibp.Dialer
	Timeout time.Duration
}

var _ ViewSetSource = (*RemoteSource)(nil)

func (r *RemoteSource) dial() (net.Conn, error) {
	d := r.Dialer
	if d == nil {
		d = ibp.NetDialer{}
	}
	conn, err := d.Dial(r.Addr)
	if err != nil {
		return nil, err
	}
	timeout := r.Timeout
	if timeout == 0 {
		timeout = 2 * time.Minute
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	return conn, nil
}

// GetViewSet implements ViewSetSource over the wire.
func (r *RemoteSource) GetViewSet(ctx context.Context, id lightfield.ViewSetID) ([]byte, AccessReport, error) {
	start := time.Now()
	rep := AccessReport{ID: id}
	conn, err := r.dial()
	if err != nil {
		return nil, rep, err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	fmt.Fprintf(conn, "GETVS %s %s\n", r.Dataset, id)
	br := bufio.NewReaderSize(conn, 64*1024)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, rep, fmt.Errorf("agent: remote getvs: %w", err)
	}
	f := strings.Fields(strings.TrimSpace(line))
	if len(f) >= 1 && f[0] == "ERR" {
		return nil, rep, fmt.Errorf("agent: remote getvs: %s", strings.Join(f[1:], " "))
	}
	if len(f) != 3 || f[0] != "OK" {
		return nil, rep, fmt.Errorf("agent: bad getvs response %q", line)
	}
	switch f[1] {
	case AccessHit.String():
		rep.Class = AccessHit
	case AccessLANDepot.String():
		rep.Class = AccessLANDepot
	case AccessWAN.String():
		rep.Class = AccessWAN
	case AccessEdge.String():
		rep.Class = AccessEdge
	default:
		return nil, rep, fmt.Errorf("agent: unknown access class %q", f[1])
	}
	n, err := strconv.Atoi(f[2])
	if err != nil || n <= 0 || n > 256<<20 {
		return nil, rep, fmt.Errorf("agent: bad getvs length")
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(br, frame); err != nil {
		return nil, rep, err
	}
	rep.Bytes = n
	rep.Comm = time.Since(start)
	return frame, rep, nil
}

// OnUserMove implements ViewSetSource; errors are dropped (cursor updates
// are advisory).
func (r *RemoteSource) OnUserMove(sp geom.Spherical) {
	conn, err := r.dial()
	if err != nil {
		return
	}
	defer conn.Close()
	fmt.Fprintf(conn, "MOVE %g %g\n", sp.Theta, sp.Phi)
	_, _ = bufio.NewReader(conn).ReadString('\n')
}
