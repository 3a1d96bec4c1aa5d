package agent

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
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
			"GETVS": {Handle: s.doGetVS, Hangup: true},
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

// doGetVS waits as any caller of the agent does: ctx ends when the client
// hangs up, which takes this waiter off the view set's flight, and the
// flight is bounded by the agent's FetchTimeout.
func (s *ClientAgentServer) doGetVS(ctx context.Context, req *wire.Request, r *wire.Reply) bool {
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
	frame, rep, err := s.Agent.GetViewSet(ctx, id)
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

// errProto wraps a reply from a server agent or client agent that cannot be
// parsed or did not arrive.
var errProto = errors.New("agent: protocol error")

// agentProto is the client <-> client agent protocol as the one transport in
// internal/wire sees it: no optional tokens, no metrics of its own.
var agentProto = wire.Protocol{
	Err:       func(f []string) error { return fmt.Errorf("agent: remote getvs: %s", strings.Join(f, " ")) },
	Malformed: errProto,
}

// RemoteSource is a ViewSetSource backed by a remote client agent. It keeps
// one persistent connection per concurrent request, four at most, and must
// not be copied after its first request.
type RemoteSource struct {
	Addr    string
	Dataset string
	Dialer  ibp.Dialer
	Timeout time.Duration

	once sync.Once
	t    wire.Client
}

var _ ViewSetSource = (*RemoteSource)(nil)

func (r *RemoteSource) wire() *wire.Client {
	r.once.Do(func() {
		r.t.Addr, r.t.Dialer, r.t.Proto, r.t.Keep = r.Addr, r.Dialer, &agentProto, 4
		if r.t.Timeout = r.Timeout; r.Timeout == 0 {
			r.t.Timeout = 2 * time.Minute
		}
	})
	return &r.t
}

// CloseIdle closes the kept connections; the source redials on demand.
func (r *RemoteSource) CloseIdle() { r.wire().CloseIdle() }

// GetViewSet implements ViewSetSource over the wire.
func (r *RemoteSource) GetViewSet(ctx context.Context, id lightfield.ViewSetID) ([]byte, AccessReport, error) {
	start := time.Now()
	rep := AccessReport{ID: id}
	call := wire.Call{Line: "GETVS " + r.Dataset + " " + id.String(), Idempotent: true, Body: wire.SizedBody, Max: 256 << 20}
	if err := r.wire().Do(ctx, &call); err != nil {
		return nil, rep, err
	}
	if len(call.Fields) != 2 || len(call.Data) == 0 {
		return nil, rep, fmt.Errorf("%w: getvs response %q", errProto, call.Fields)
	}
	switch call.Fields[0] {
	case AccessHit.String():
		rep.Class = AccessHit
	case AccessLANDepot.String():
		rep.Class = AccessLANDepot
	case AccessWAN.String():
		rep.Class = AccessWAN
	case AccessEdge.String():
		rep.Class = AccessEdge
	default:
		return nil, rep, fmt.Errorf("%w: unknown access class %q", errProto, call.Fields[0])
	}
	rep.Bytes = len(call.Data)
	rep.Comm = time.Since(start)
	return call.Data, rep, nil
}

// OnUserMove implements ViewSetSource; errors are dropped (cursor updates
// are advisory, and one that would wait out four slow GETVS is stale).
func (r *RemoteSource) OnUserMove(sp geom.Spherical) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = r.wire().Do(ctx, &wire.Call{Line: fmt.Sprintf("MOVE %g %g", sp.Theta, sp.Phi), Idempotent: true})
}
