// Package dvs implements the Dictionary of View Sets (paper section 3.6):
// the DNS-like lookup service mapping view set identifiers to the exNodes
// of their replicas. A DVS server maintains two tables — the exNode table
// and the server-agent table. Servers form a hierarchy: a query that
// misses locally is forwarded to the parent recursively, and a hit on any
// level is cached on the way back down (like DNS resolution). When the
// whole hierarchy misses, the view set has not been computed yet; the DVS
// consults its server-agent table and forwards the request to the right
// server agent for on-demand generation, then records the returned exNode.
package dvs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/overload"
	"lonviz/internal/wire"
)

// Key identifies a view set within a dataset.
type Key struct {
	Dataset string
	ViewSet string
}

func (k Key) String() string { return k.Dataset + "/" + k.ViewSet }

// ErrMiss is returned when no exNode is known and no server agent can
// produce one.
var ErrMiss = errors.New("dvs: view set not found")

// ErrProto reports a malformed request or response.
var ErrProto = errors.New("dvs: protocol error")

// ErrBusy is returned when a DVS server sheds the request under overload
// (admission queue full, or the propagated deadline budget already spent).
// It is retryable: back off and ask again, or consult another level of
// the hierarchy. The package keeps its own sentinel rather than borrowing
// ibp's because dvs deliberately has no dependency on the depot protocol.
var ErrBusy = errors.New("dvs: server busy, retry later")

const (
	maxLine  = 2048
	maxEntry = 4 << 20 // one exNode XML document
)

// Dialer abstracts connection establishment (netsim-compatible).
type Dialer = wire.Dialer

// GenerateFunc asks a server agent to render and upload a view set,
// returning the exNode XML for the freshly uploaded data. The agent
// package provides the standard implementation; keeping it a function
// avoids a dependency cycle.
type GenerateFunc func(ctx context.Context, agentAddr string, key Key) ([]byte, error)

// Server is one level of the DVS hierarchy.
type Server struct {
	// Parent is the next level up (empty for the root).
	Parent string
	// Dialer shapes connections to the parent; nil means plain TCP.
	Dialer Dialer
	// Generate, when set, lets this server forward misses to a registered
	// server agent for on-demand generation. Typically only the root level
	// sets it.
	Generate GenerateFunc
	// Timeout bounds upstream queries (default 30s).
	Timeout time.Duration
	// Admission bounds concurrent request execution: beyond its in-flight
	// and queue capacity, requests are rejected with ERR BUSY so clients
	// back off instead of queueing behind an overloaded directory. nil
	// admits everything; requests arriving with an exhausted deadline=
	// budget are shed regardless.
	Admission *overload.Gate
	// Tracer receives the server-side request spans opened for traced
	// requests (those carrying a trace= token); nil records into
	// obs.DefaultTracer().
	Tracer *obs.Tracer
	// Obs receives the dvs.server.op.ms histogram, the dvs.shed counters
	// and the load gauges; nil records into obs.Default().
	Obs *obs.Registry

	loop *wire.Server

	mu      sync.Mutex
	exnodes map[Key][][]byte  // exNode table: replicas' XML documents
	agents  map[string]string // server agent table: dataset -> agent addr
	closed  bool
	parent  *Client // forwards local misses to Parent; made on first use
}

// NewServer creates an empty DVS level.
func NewServer(parent string) *Server {
	s := &Server{
		Parent:  parent,
		exnodes: make(map[Key][][]byte),
		agents:  make(map[string]string),
	}
	record := wire.Verb{Handle: s.doRecord, Payload: recordPayload}
	s.loop = wire.NewServer(wire.Service{
		Names: wire.Names{
			Component:  "dvs",
			Span:       obs.SpanDVSServe,
			ProfClass:  "dvs",
			OpMs:       obs.MDVSServerOpMs,
			Shed:       obs.MDVSShed,
			Inflight:   obs.MDVSInflight,
			QueueDepth: obs.MDVSQueueDepth,
		},
		Verbs: map[string]wire.Verb{
			"GET":      {Handle: s.doGet},
			"PUT":      record,
			"REPLACE":  record,
			"REGAGENT": {Handle: s.doRegAgent},
			"AGENT":    {Handle: s.doAgent},
		},
		LineCap: maxLine,
		Tokens:  true,
		Busy:    func(reason string) string { return "ERR BUSY " + reason },
		Refuse:  func(string) string { return "ERR bad request" },
	}, func() wire.Settings {
		return wire.Settings{Admission: s.Admission, Obs: s.Obs, Tracer: s.Tracer}
	})
	return s
}

// Put records an exNode replica for key (appending to existing replicas).
func (s *Server) Put(key Key, exnodeXML []byte) error { return s.record(key, exnodeXML, false) }

// Replace overwrites every recorded exNode replica for key with the single
// given document. Maintenance tooling uses it after lease renewal or
// replica repair so browsing clients resolve the updated layout instead of
// an accumulating list of stale ones. (Parents and children in the
// hierarchy may still hold cached copies until they refresh.)
func (s *Server) Replace(key Key, exnodeXML []byte) error { return s.record(key, exnodeXML, true) }

// record stores a copy of exnodeXML under key, after or instead of the
// replicas already there.
func (s *Server) record(key Key, exnodeXML []byte, replace bool) error {
	if key.Dataset == "" || key.ViewSet == "" {
		return fmt.Errorf("dvs: empty key %+v", key)
	}
	if len(exnodeXML) == 0 || len(exnodeXML) > maxEntry {
		return fmt.Errorf("dvs: exnode size %d out of range", len(exnodeXML))
	}
	cp := append([]byte{}, exnodeXML...)
	s.mu.Lock()
	if replace {
		delete(s.exnodes, key)
	}
	s.exnodes[key] = append(s.exnodes[key], cp)
	s.mu.Unlock()
	return nil
}

// RegisterAgent records the server agent responsible for dataset.
func (s *Server) RegisterAgent(dataset, agentAddr string) error {
	if dataset == "" || agentAddr == "" {
		return fmt.Errorf("dvs: empty agent registration")
	}
	s.mu.Lock()
	s.agents[dataset] = agentAddr
	s.mu.Unlock()
	return nil
}

// AgentFor returns the registered server agent for dataset.
func (s *Server) AgentFor(dataset string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.agents[dataset]
	return a, ok
}

// lookupLocal returns local replicas for key.
func (s *Server) lookupLocal(key Key) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	reps := s.exnodes[key]
	out := make([][]byte, len(reps))
	copy(out, reps)
	return out
}

// Resolve answers a query at this level: local table first, then the
// parent hierarchy (caching the answer), then on-demand generation via the
// server-agent table.
func (s *Server) Resolve(ctx context.Context, key Key) ([][]byte, error) {
	if reps := s.lookupLocal(key); len(reps) > 0 {
		return reps, nil
	}
	if s.Parent != "" {
		reps, err := s.forward(ctx, key)
		if err == nil && len(reps) > 0 {
			// Cache on the way down, DNS style.
			s.mu.Lock()
			if len(s.exnodes[key]) == 0 {
				s.exnodes[key] = reps
			}
			s.mu.Unlock()
			return reps, nil
		}
		if err != nil && !errors.Is(err, ErrMiss) {
			return nil, err
		}
	}
	// Whole hierarchy missed: the view set has not been computed.
	agentAddr, ok := s.AgentFor(key.Dataset)
	if !ok || s.Generate == nil {
		return nil, fmt.Errorf("%w: %s", ErrMiss, key)
	}
	xml, err := s.Generate(ctx, agentAddr, key)
	if err != nil {
		return nil, fmt.Errorf("dvs: on-demand generation of %s: %w", key, err)
	}
	if err := s.Put(key, xml); err != nil {
		return nil, err
	}
	return [][]byte{xml}, nil
}

// --- wire protocol ---
//
//	GET <dataset> <viewset>            -> OK <n> then n x (<len>\n<xml>) | MISS
//	PUT <dataset> <viewset> <len>\n<xml> -> OK
//	REPLACE <dataset> <viewset> <len>\n<xml> -> OK   (drops prior replicas)
//	REGAGENT <dataset> <addr>          -> OK
//	AGENT <dataset>                    -> OK <addr> | MISS

// ListenAndServe starts the DVS on addr and returns the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) { return s.loop.ListenAndServe(addr) }

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) error { return s.loop.Serve(l) }

// Close stops the listener and closes the accepted connections (whose
// handlers otherwise sit in a read for as long as a client pools them)
// and the idle ones to the parent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.parent != nil {
		s.parent.CloseIdle()
	}
	s.mu.Unlock()
	return s.loop.Close()
}

// forward asks the parent level over the one persistent client every
// forwarded query shares, built from Parent/Dialer/Timeout as they stand
// at the first one. A query still out when Close runs gives its connection
// back to a pool Close has already emptied, so it empties it again.
func (s *Server) forward(ctx context.Context, key Key) ([][]byte, error) {
	s.mu.Lock()
	if s.parent == nil {
		s.parent = &Client{Addr: s.Parent, Dialer: s.Dialer, Timeout: s.Timeout}
	}
	parent := s.parent
	s.mu.Unlock()
	reps, err := parent.Get(ctx, key)
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		parent.CloseIdle()
	}
	return reps, err
}

// badRequest answers a line the verb's handler cannot take; the connection
// is dropped.
func badRequest(r *wire.Reply) bool {
	r.Line("ERR bad request")
	return false
}

func (s *Server) doGet(ctx context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 3 {
		return badRequest(r)
	}
	// Queries may recurse upstream; bound them. The span context rides
	// along so hierarchy forwarding re-propagates the same trace to the
	// parent DVS and to on-demand generation.
	timeout := s.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	reps, err := s.Resolve(ctx, Key{Dataset: f[1], ViewSet: f[2]})
	cancel()
	switch {
	case errors.Is(err, ErrMiss):
		r.Line("MISS")
	case err != nil:
		r.Line("ERR " + wire.OneLine(err.Error()))
	default:
		fmt.Fprintf(r, "OK %d\n", len(reps))
		for _, rep := range reps {
			fmt.Fprintf(r, "%d\n", len(rep))
			r.Write(rep)
		}
	}
	return true
}

// recordPayload reads the XML length a PUT or REPLACE line declares.
func recordPayload(req *wire.Request, r *wire.Reply) (int, bool) {
	if len(req.Fields) != 4 {
		return 0, badRequest(r)
	}
	n, err := strconv.Atoi(req.Fields[3])
	if err != nil || n <= 0 || n > maxEntry {
		r.Line("ERR bad length")
		return 0, false
	}
	return n, true
}

// doRecord serves PUT and REPLACE; record copies the pooled payload.
func (s *Server) doRecord(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if err := s.record(Key{Dataset: f[1], ViewSet: f[2]}, req.Payload, f[0] == "REPLACE"); err != nil {
		r.Line("ERR " + wire.OneLine(err.Error()))
		return true
	}
	r.Line("OK")
	return true
}

func (s *Server) doRegAgent(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 3 {
		return badRequest(r)
	}
	if err := s.RegisterAgent(f[1], f[2]); err != nil {
		r.Line("ERR " + wire.OneLine(err.Error()))
		return true
	}
	r.Line("OK")
	return true
}

func (s *Server) doAgent(_ context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 2 {
		return badRequest(r)
	}
	if addr, ok := s.AgentFor(f[1]); ok {
		r.Line("OK " + addr)
	} else {
		r.Line("MISS")
	}
	return true
}

// maxConns bounds the connections one Client holds open, busy or idle:
// requests beyond it wait for a connection instead of dialing another.
const maxConns = 4

// clientProto is the DVS protocol as the one transport in internal/wire
// sees it. A connection is kept after OK and MISS only: the server drops it
// with ERR BUSY, and any other ERR is treated alike.
var clientProto = wire.Protocol{
	Tokens:    true,
	Err:       remoteErr,
	Miss:      ErrMiss,
	Malformed: ErrProto,
}

// remoteErr classifies the fields after "ERR": a BUSY shed becomes the
// typed ErrBusy, anything else the generic remote error pre-overload
// servers already produced.
func remoteErr(f []string) error {
	if f[0] == "BUSY" {
		return fmt.Errorf("dvs: remote: %s: %w", strings.Join(f[1:], " "), ErrBusy)
	}
	return fmt.Errorf("dvs: remote: %s", strings.Join(f, " "))
}

// Client queries a DVS server over a small pool of persistent connections:
// the transport keeps up to maxConns untagged ones, and repeats a request
// that failed on a reused connection once, on a new one, only if that is
// harmless — PUT appends a replica and is never repeated blindly. The zero
// value plus Addr is ready to use; the fields are read at the first request,
// and the Client must not be copied after it.
type Client struct {
	Addr    string
	Dialer  Dialer
	Timeout time.Duration

	once sync.Once
	t    wire.Client
}

func (c *Client) wire() *wire.Client {
	c.once.Do(func() {
		c.t.Addr, c.t.Dialer, c.t.Proto, c.t.Keep = c.Addr, c.Dialer, &clientProto, maxConns
		if c.t.Timeout = c.Timeout; c.Timeout == 0 {
			c.t.Timeout = 30 * time.Second
		}
	})
	return &c.t
}

// CloseIdle closes the pooled connections; the Client redials on demand.
func (c *Client) CloseIdle() { c.wire().CloseIdle() }

// Get fetches all known exNode replicas for key. A pure miss returns
// ErrMiss.
func (c *Client) Get(ctx context.Context, key Key) ([][]byte, error) {
	call := wire.Call{Line: "GET " + key.Dataset + " " + key.ViewSet, Idempotent: true, Body: wire.ListBody, Max: maxEntry}
	if err := c.wire().Do(ctx, &call); errors.Is(err, ErrMiss) {
		return nil, fmt.Errorf("%w: %s", ErrMiss, key)
	} else if err != nil {
		return nil, err
	}
	for _, rep := range call.List {
		if len(rep) == 0 {
			return nil, fmt.Errorf("%w: empty entry", ErrProto)
		}
	}
	return call.List, nil
}

// Put registers an exNode replica for key.
func (c *Client) Put(ctx context.Context, key Key, exnodeXML []byte) error {
	return c.record(ctx, "PUT", key, exnodeXML)
}

// Replace overwrites every recorded exNode replica for key with one
// document (see Server.Replace).
func (c *Client) Replace(ctx context.Context, key Key, exnodeXML []byte) error {
	return c.record(ctx, "REPLACE", key, exnodeXML)
}

func (c *Client) record(ctx context.Context, verb string, key Key, exnodeXML []byte) error {
	return c.wire().Do(ctx, &wire.Call{
		Line:    fmt.Sprintf("%s %s %s %d", verb, key.Dataset, key.ViewSet, len(exnodeXML)),
		Payload: exnodeXML, Idempotent: verb == "REPLACE",
	})
}

// RegisterAgent records the server agent for a dataset.
func (c *Client) RegisterAgent(ctx context.Context, dataset, agentAddr string) error {
	return c.wire().Do(ctx, &wire.Call{Line: "REGAGENT " + dataset + " " + agentAddr, Idempotent: true})
}

// AgentFor queries the server-agent table.
func (c *Client) AgentFor(ctx context.Context, dataset string) (string, error) {
	call := wire.Call{Line: "AGENT " + dataset, Idempotent: true}
	if err := c.wire().Do(ctx, &call); err != nil {
		return "", err
	}
	if len(call.Fields) != 1 {
		return "", fmt.Errorf("%w: AGENT response %q", ErrProto, call.Fields)
	}
	return call.Fields[0], nil
}
