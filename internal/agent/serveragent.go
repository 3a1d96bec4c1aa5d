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

	"lonviz/internal/codec"
	"lonviz/internal/dvs"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
	"lonviz/internal/overload"
	"lonviz/internal/wire"
)

// ErrRenderBusy reports that the server agent shed a render request —
// evicted from a full pending queue or dropped because its propagated
// deadline budget was already spent. It wraps ibp.ErrBusy so every layer
// classifies overload sheds with one sentinel: retryable later, not a
// failure of the agent.
var ErrRenderBusy = fmt.Errorf("agent: render request shed: %w", ibp.ErrBusy)

// reasonEvicted labels sheds where a newer request pushed this one out of
// a full pending queue (the latest-first scheduler's load-shedding form).
const reasonEvicted = "evicted"

// ServerAgentConfig wires a server agent to its generator and
// infrastructure.
type ServerAgentConfig struct {
	// Dataset names the database (the DVS key prefix).
	Dataset string
	// Gen renders view sets (ray-casting in production, procedural in
	// experiments).
	Gen lightfield.Generator
	// Depots are the server depots that receive uploaded view sets.
	Depots []string
	// DVS registers exNodes for uploaded view sets; optional (nil for a
	// stand-alone agent whose callers keep the exNodes themselves).
	DVS *dvs.Client
	// StripeSize, Replicas, Lease configure uploads (see lors.UploadOptions).
	StripeSize int64
	Replicas   int
	Lease      time.Duration
	// Dialer shapes connections to depots and the DVS; nil means plain TCP.
	Dialer ibp.Dialer
	// Workers is the generator parallelism for PrecomputeAll (0 =
	// GOMAXPROCS), standing in for the paper's 32-processor cluster.
	Workers int
	// MaxPending bounds the scheduler's LIFO stack of distinct unrendered
	// view sets. When a new request would push the stack past the bound,
	// the OLDEST pending request is evicted and its waiters are answered
	// with BUSY — under overload the agent keeps only the requests that
	// reflect where users are now, which is the paper's latest-first
	// scheduler taken to its load-shedding conclusion. 0 means unbounded.
	MaxPending int
	// Obs receives upload timings via the lors layer; nil records into
	// obs.Default().
	Obs *obs.Registry
}

// ServerAgent renders view sets on request, compresses them, uploads them
// to server depots, and registers the exNodes with the DVS. Its scheduler
// follows the paper: "Working from the entire collection of requests that
// have been received but not yet rendered, the scheduler chooses the
// latest request to assign to the generator" — i.e. LIFO, because the most
// recent request reflects where the user is now.
type ServerAgent struct {
	cfg ServerAgentConfig

	mu      sync.Mutex
	pending []lightfield.ViewSetID // LIFO stack of unrendered requests
	waiters map[lightfield.ViewSetID][]renderWaiter
	queued  map[lightfield.ViewSetID]bool
	stats   ServerAgentStats
	loop    *wire.Server
	wake    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// ServerAgentStats counts agent activity.
type ServerAgentStats struct {
	Requests   int64
	Rendered   int64
	Uploaded   int64
	BytesSent  int64
	DVSUpdates int64
	// Evicted counts waiters shed because a newer request pushed theirs
	// out of a full pending queue; DeadlineDrops counts waiters shed
	// because their deadline budget ran out — spent on arrival, or
	// expired for every waiter while their request sat queued.
	Evicted       int64
	DeadlineDrops int64
}

type renderResult struct {
	exnodeXML []byte
	err       error
}

// renderWaiter is one blocked Request call: its result channel plus the
// caller's context, so the scheduler can drop queued work nobody is
// still waiting for.
type renderWaiter struct {
	ch  chan renderResult
	ctx context.Context
}

// NewServerAgent validates the configuration.
func NewServerAgent(cfg ServerAgentConfig) (*ServerAgent, error) {
	if cfg.Dataset == "" {
		return nil, fmt.Errorf("agent: server agent needs a dataset name")
	}
	if cfg.Gen == nil {
		return nil, fmt.Errorf("agent: server agent needs a generator")
	}
	if len(cfg.Depots) == 0 {
		return nil, fmt.Errorf("agent: server agent needs at least one depot")
	}
	if cfg.Lease == 0 {
		cfg.Lease = 10 * time.Minute
	}
	sa := &ServerAgent{
		cfg:     cfg,
		waiters: make(map[lightfield.ViewSetID][]renderWaiter),
		queued:  make(map[lightfield.ViewSetID]bool),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	// The paper's "server monitor ... interface for all such run-time
	// queries": RENDER <dataset> <viewset> -> OK <len>\n<exnode xml> | ERR <msg>.
	// The loop sheds nothing here: the scheduler below does, in Request.
	sa.loop = wire.NewServer(wire.Service{
		Names: wire.Names{Component: "render", Span: obs.SpanRenderServe},
		Verbs: map[string]wire.Verb{
			"RENDER": {Handle: sa.doRender},
		},
		LineCap: 1024,
		Tokens:  true,
		Refuse:  func(string) string { return "ERR bad request" },
	}, func() wire.Settings { return wire.Settings{} })
	sa.initMetrics()
	go sa.schedulerLoop()
	return sa, nil
}

func (sa *ServerAgent) registry() *obs.Registry {
	if sa.cfg.Obs != nil {
		return sa.cfg.Obs
	}
	return obs.Default()
}

// initMetrics eagerly registers the render queue gauge so load
// dashboards see it at zero before any request arrives.
func (sa *ServerAgent) initMetrics() {
	sa.registry().Gauge(obs.MAgentRenderQueueDepth).Set(0)
}

// shed counts n shed render waiters under their reason and logs it.
func (sa *ServerAgent) shed(reason string, n int) {
	if n <= 0 {
		return
	}
	sa.mu.Lock()
	if reason == reasonEvicted {
		sa.stats.Evicted += int64(n)
	} else {
		sa.stats.DeadlineDrops += int64(n)
	}
	sa.mu.Unlock()
	obs.DefaultLogger().Warn(obs.EvShed,
		"component", "agent", "reason", reason, "dataset", sa.cfg.Dataset)
}

func (sa *ServerAgent) setQueueDepth(n int) {
	sa.registry().Gauge(obs.MAgentRenderQueueDepth).Set(int64(n))
}

// Close stops the scheduler, the listener and the accepted connections, and
// drops the DVS client's idle connections.
func (sa *ServerAgent) Close() error {
	sa.once.Do(func() { close(sa.done) })
	if sa.cfg.DVS != nil {
		sa.cfg.DVS.CloseIdle()
	}
	return sa.loop.Close()
}

// Stats returns a snapshot of agent counters.
func (sa *ServerAgent) Stats() ServerAgentStats {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.stats
}

// uploadOpts builds the lors options for this agent.
func (sa *ServerAgent) uploadOpts() lors.UploadOptions {
	return lors.UploadOptions{
		Depots:     sa.cfg.Depots,
		StripeSize: sa.cfg.StripeSize,
		Replicas:   sa.cfg.Replicas,
		Lease:      sa.cfg.Lease,
		Policy:     ibp.Stable,
		Dialer:     sa.cfg.Dialer,
		Obs:        sa.cfg.Obs,
	}
}

// RegisterMetrics publishes this agent's Stats into reg: the work counts
// as agent.server.*, the sheds as agent.render.shed{reason=...}, at zero
// until the first shed. Passing nil publishes into obs.Default().
func (sa *ServerAgent) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	reg.RegisterSnapshot("agent.server", func() map[string]float64 {
		st := sa.Stats()
		return map[string]float64{
			"requests": float64(st.Requests),
			"rendered": float64(st.Rendered),
		}
	})
	reg.RegisterSnapshot("agent.render", func() map[string]float64 {
		st := sa.Stats()
		return map[string]float64{
			obs.Label("shed", "reason", reasonEvicted):           float64(st.Evicted),
			obs.Label("shed", "reason", overload.ReasonDeadline): float64(st.DeadlineDrops),
		}
	})
}

// renderAndPublish does the full pipeline for one view set: generate,
// compress, upload, register. It returns the exNode XML.
func (sa *ServerAgent) renderAndPublish(ctx context.Context, id lightfield.ViewSetID) ([]byte, error) {
	// CPU attribution: rendering dominates server-agent profiles, so the
	// {class=render} slice separates generation+encode+upload from the
	// request-scheduling machinery around it.
	lctx := prof.Begin1(ctx, prof.KeyClass, "render")
	defer prof.End(ctx)
	ctx = lctx
	p := sa.cfg.Gen.Params()
	vs, err := sa.cfg.Gen.GenerateViewSet(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("agent: generating %v: %w", id, err)
	}
	frame, err := lightfield.EncodeViewSet(vs, p, codec.DefaultCompression)
	if err != nil {
		return nil, fmt.Errorf("agent: encoding %v: %w", id, err)
	}
	ex, err := lors.Upload(ctx, id.String(), frame, sa.uploadOpts())
	if err != nil {
		return nil, fmt.Errorf("agent: uploading %v: %w", id, err)
	}
	xml, err := ex.Marshal()
	if err != nil {
		return nil, err
	}
	if sa.cfg.DVS != nil {
		key := dvs.Key{Dataset: sa.cfg.Dataset, ViewSet: id.String()}
		if err := sa.cfg.DVS.Put(ctx, key, xml); err != nil {
			return nil, fmt.Errorf("agent: DVS update for %v: %w", id, err)
		}
		sa.mu.Lock()
		sa.stats.DVSUpdates++
		sa.mu.Unlock()
	}
	sa.mu.Lock()
	sa.stats.Rendered++
	sa.stats.Uploaded++
	sa.stats.BytesSent += int64(len(frame))
	sa.mu.Unlock()
	return xml, nil
}

// Request enqueues a render request and blocks until the scheduler
// completes it (LIFO order among outstanding requests).
func (sa *ServerAgent) Request(ctx context.Context, id lightfield.ViewSetID) ([]byte, error) {
	if !sa.cfg.Gen.Params().ValidID(id) {
		return nil, fmt.Errorf("agent: view set %v outside database", id)
	}
	if ctx.Err() != nil {
		// The propagated deadline budget is already spent: shed instead
		// of queueing work for a caller that has moved on.
		sa.shed(overload.ReasonDeadline, 1)
		return nil, ErrRenderBusy
	}
	ch := make(chan renderResult, 1)
	var evicted []renderWaiter
	sa.mu.Lock()
	sa.stats.Requests++
	sa.waiters[id] = append(sa.waiters[id], renderWaiter{ch: ch, ctx: ctx})
	if !sa.queued[id] {
		sa.queued[id] = true
		sa.pending = append(sa.pending, id) // top of stack = latest
		if sa.cfg.MaxPending > 0 && len(sa.pending) > sa.cfg.MaxPending {
			// Latest request first: evict the OLDEST pending entry —
			// under overload the stale request is least likely to still
			// reflect where its user is.
			old := sa.pending[0]
			sa.pending = append([]lightfield.ViewSetID(nil), sa.pending[1:]...)
			delete(sa.queued, old)
			evicted = sa.waiters[old]
			delete(sa.waiters, old)
		}
	}
	depth := len(sa.pending)
	sa.mu.Unlock()
	sa.setQueueDepth(depth)
	sa.shed(reasonEvicted, len(evicted))
	for _, w := range evicted {
		w.ch <- renderResult{err: ErrRenderBusy}
	}
	select {
	case sa.wake <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case r := <-ch:
		return r.exnodeXML, r.err
	}
}

// schedulerLoop is the single generator worker, always taking the most
// recently requested view set first.
func (sa *ServerAgent) schedulerLoop() {
	for {
		select {
		case <-sa.done:
			return
		case <-sa.wake:
		}
		for {
			sa.mu.Lock()
			if len(sa.pending) == 0 {
				sa.mu.Unlock()
				break
			}
			id := sa.pending[len(sa.pending)-1] // latest request
			sa.pending = sa.pending[:len(sa.pending)-1]
			delete(sa.queued, id)
			depth := len(sa.pending)
			// Skip the render entirely when no waiter is still live:
			// every caller's deadline expired while the request sat
			// queued, so the work would be pure waste.
			live := false
			ws := sa.waiters[id]
			for _, w := range ws {
				if w.ctx.Err() == nil {
					live = true
					break
				}
			}
			if !live {
				delete(sa.waiters, id)
				sa.mu.Unlock()
				sa.setQueueDepth(depth)
				sa.shed(overload.ReasonDeadline, len(ws))
				for _, w := range ws {
					w.ch <- renderResult{err: ErrRenderBusy}
				}
				continue
			}
			sa.mu.Unlock()
			sa.setQueueDepth(depth)

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			xml, err := sa.renderAndPublish(ctx, id)
			cancel()

			sa.mu.Lock()
			ws = sa.waiters[id]
			delete(sa.waiters, id)
			sa.mu.Unlock()
			for _, w := range ws {
				w.ch <- renderResult{exnodeXML: xml, err: err}
			}
		}
	}
}

// PrecomputeAll renders, compresses, uploads and registers the entire
// database — the paper's offline generation path. It returns the exNode
// XML per view set.
func (sa *ServerAgent) PrecomputeAll(ctx context.Context) (map[lightfield.ViewSetID][]byte, error) {
	p := sa.cfg.Gen.Params()
	out := make(map[lightfield.ViewSetID][]byte, p.NumViewSets())
	var outMu sync.Mutex
	ids := p.AllViewSets()
	workers := sa.cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, id lightfield.ViewSetID) {
			defer wg.Done()
			defer func() { <-sem }()
			xml, err := sa.renderAndPublish(ctx, id)
			if err != nil {
				errs[i] = err
				return
			}
			outMu.Lock()
			out[id] = xml
			outMu.Unlock()
		}(i, id)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ListenAndServe exposes the agent's render service on addr.
func (sa *ServerAgent) ListenAndServe(addr string) (string, error) {
	return sa.loop.ListenAndServe(addr)
}

// Serve exposes the render service on l until Close.
func (sa *ServerAgent) Serve(l net.Listener) error { return sa.loop.Serve(l) }

func (sa *ServerAgent) doRender(ctx context.Context, req *wire.Request, r *wire.Reply) bool {
	f := req.Fields
	if len(f) != 3 || f[1] != sa.cfg.Dataset {
		r.Line("ERR bad request")
		return false
	}
	id, err := ParseViewSetKey(f[2])
	if err != nil {
		r.Line("ERR " + err.Error())
		return true
	}
	obs.SpanFromContext(ctx).SetAttr("viewset", f[2])
	// ctx carries the caller's propagated deadline, so queued work for a
	// departed caller is dropped instead of rendered.
	ctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	xml, err := sa.Request(ctx, id)
	cancel()
	switch {
	case errors.Is(err, ibp.ErrBusy):
		r.Line("ERR BUSY render request shed, retry later")
	case err != nil:
		r.Line("ERR " + wire.OneLine(err.Error()))
	default:
		fmt.Fprintf(r, "OK %d\n", len(xml))
		r.Body(xml)
	}
	return true
}

// renderProto is the render protocol as the one transport in internal/wire
// sees it.
var renderProto = wire.Protocol{
	Tokens: true,
	Err: func(f []string) error {
		if f[0] == "BUSY" {
			// Typed so callers treat an agent shed as retryable, exactly
			// like a depot BUSY; pre-overload agents never emit this shape.
			return fmt.Errorf("agent: remote render: %s: %w", strings.Join(f[1:], " "), ibp.ErrBusy)
		}
		return fmt.Errorf("agent: remote render: %s", strings.Join(f, " "))
	},
	Malformed: errProto,
}

// RequestRemote asks a remote server agent (by address) to render a view
// set, returning the exNode XML. It is also the standard dvs.GenerateFunc
// implementation. Each request dials its own connection.
func RequestRemote(ctx context.Context, dialer ibp.Dialer, agentAddr, dataset, viewSetKey string) ([]byte, error) {
	t := wire.Client{Addr: agentAddr, Dialer: dialer, Timeout: 5 * time.Minute, Proto: &renderProto}
	call := wire.Call{Line: "RENDER " + dataset + " " + viewSetKey, Body: wire.SizedBody, Max: 4 << 20}
	if err := t.Do(ctx, &call); err != nil {
		return nil, err
	}
	if len(call.Fields) != 1 || len(call.Data) == 0 {
		return nil, fmt.Errorf("%w: render response %q", errProto, call.Fields)
	}
	return call.Data, nil
}

// GenerateFunc adapts RequestRemote to the dvs.GenerateFunc signature.
func GenerateFunc(dialer ibp.Dialer) dvs.GenerateFunc {
	return func(ctx context.Context, agentAddr string, key dvs.Key) ([]byte, error) {
		return RequestRemote(ctx, dialer, agentAddr, key.Dataset, key.ViewSet)
	}
}

// ParseViewSetKey parses the "rRRcCC" form produced by ViewSetID.String.
// Only non-negative decimal digits are accepted and no trailing bytes are
// allowed.
func ParseViewSetKey(s string) (lightfield.ViewSetID, error) {
	bad := func() (lightfield.ViewSetID, error) {
		return lightfield.ViewSetID{}, fmt.Errorf("agent: bad view set key %q", s)
	}
	if len(s) < 4 || s[0] != 'r' {
		return bad()
	}
	ci := strings.IndexByte(s, 'c')
	if ci < 2 || ci == len(s)-1 {
		return bad()
	}
	r, err := strconv.Atoi(s[1:ci])
	if err != nil || r < 0 || s[1] == '+' || s[1] == '-' {
		return bad()
	}
	c, err := strconv.Atoi(s[ci+1:])
	if err != nil || c < 0 || s[ci+1] == '+' || s[ci+1] == '-' {
		return bad()
	}
	return lightfield.ViewSetID{R: r, C: c}, nil
}
