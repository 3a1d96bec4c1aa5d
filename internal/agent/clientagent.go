// Package agent implements the two runtime brokers of the streaming model
// (paper Figure 3): the server agent, which renders view sets on demand,
// uploads them to server depots and registers them with the DVS; and the
// client agent, which serves clients from an LRU cache, prefetches the
// view set the cursor's path enters next, and aggressively prestages the
// database to a LAN depot with third-party copies.
//
// Both agents are instrumented through internal/obs: the client agent
// wraps every fetch in an agent.getviewset span with resolve/download/
// stage children and records per-class latency, cache hit/miss, and
// prefetch-usefulness metrics; RegisterMetrics bridges the per-instance
// Stats counters onto a registry for the /metrics endpoint.
package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"lonviz/internal/dvs"
	"lonviz/internal/exnode"
	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/lru"
	"lonviz/internal/obs"
	"lonviz/internal/singleflight"
)

// AccessClass classifies where a view set request was satisfied from —
// the categories of the paper's section 4.3 analysis.
type AccessClass int

const (
	// AccessHit: served from the client agent's cache (~1e-4 s in Fig 12).
	AccessHit AccessClass = iota
	// AccessLANDepot: fetched from the prestaged LAN depot (~1e-2..1e-1 s).
	AccessLANDepot
	// AccessWAN: fetched from the server depots across the WAN (~1 s).
	AccessWAN
	// AccessEdge: every extent served by the shared edge cache tier (LAN
	// cost, but a different machine than the agent — its own class so the
	// paper's access breakdown stays honest about where bytes came from).
	AccessEdge
)

// String implements fmt.Stringer.
func (c AccessClass) String() string {
	switch c {
	case AccessHit:
		return "hit"
	case AccessLANDepot:
		return "lan-depot"
	case AccessWAN:
		return "wan"
	case AccessEdge:
		return "edge"
	default:
		return fmt.Sprintf("AccessClass(%d)", int(c))
	}
}

// AccessReport describes one satisfied view set request.
type AccessReport struct {
	ID    lightfield.ViewSetID
	Class AccessClass
	// Comm is the communication latency: time until the compressed frame
	// was in the agent's hands (Figure 12's quantity).
	Comm time.Duration
	// Bytes is the compressed frame size.
	Bytes int
}

// StageOrder selects how the prestager walks the database.
type StageOrder int

const (
	// StageByProximity stages view sets nearest the cursor first, updating
	// the order as the cursor moves (the paper's policy, Figure 5).
	StageByProximity StageOrder = iota
	// StageSequential stages in row-major ID order (ablation baseline).
	StageSequential
)

// PrefetchPolicy selects what a move queues for the prefetcher.
type PrefetchPolicy int

const (
	// PrefetchPath queues one view set per move: the one the cursor enters
	// if it takes one more step of its last motion, else (no motion yet, a
	// step inside the current set, or that set cached) the first of the
	// quadrant's targets not cached. One think window on a far link carries
	// one view-set transfer, so a second would still be on the wire when
	// the next move misses. It follows one cursor: an agent whose moves
	// come from several clients (ClientAgentServer) reads their
	// interleaving as steps, and runs PrefetchQuadrant instead.
	PrefetchPath PrefetchPolicy = iota
	// PrefetchQuadrant queues the paper's Figure 4 policy: the three view
	// sets on the side of the cursor's quadrant.
	PrefetchQuadrant
	// PrefetchNeighbors queues the full 8-neighborhood (ablation baseline
	// for Figure 4's policy: more coverage, ~2.7x the extraneous transfer).
	PrefetchNeighbors
)

const (
	// exNodeCacheBytes is the exNode cache budget.
	exNodeCacheBytes = 8 << 20
	// stageLease is the lease on staged (volatile) copies.
	stageLease = 10 * time.Minute
)

// ClientAgentConfig wires a client agent to the streaming infrastructure.
type ClientAgentConfig struct {
	// Dataset and Params describe the database being browsed.
	Dataset string
	Params  lightfield.Params
	// DVS resolves view set identifiers to exNodes.
	DVS *dvs.Client
	// Dialer shapes connections to depots/DVS; nil means plain TCP. Routes
	// determine which depots look like WAN and which like LAN.
	Dialer ibp.Dialer
	// CacheBytes is the view set cache budget (compressed frames).
	CacheBytes int64
	// LANDepots, when set, enables two-stage aggressive prestaging onto
	// these depots (staged extents stripe round-robin across them, like
	// the paper's four LAN depots).
	LANDepots []string
	// StageOrderPolicy selects staging order (default proximity).
	StageOrderPolicy StageOrder
	// SuppressStageOnMiss pauses the prestager while a user's miss is in
	// flight (the mitigation discussed in section 4.3).
	SuppressStageOnMiss bool
	// RouteMissesThroughDepot implements the paper's other suggested
	// mitigation: when a view set misses both cache and staged store, the
	// agent stages it to the LAN depot first (third-party copy) and then
	// downloads from there, so the WAN transfer is never redundant — the
	// staged copy remains for future accesses. Requires LANDepots.
	RouteMissesThroughDepot bool
	// Prefetch enables prefetching on cursor movement, one view set at a
	// time and never beside a user's miss.
	Prefetch bool
	// PrefetchPolicy selects the sets a move queues (default PrefetchPath).
	PrefetchPolicy PrefetchPolicy
	// EdgeAddr, when set, routes misses through the shared edge cache tier
	// at this host:port (an lfedged instance): resolved exNodes gain a
	// preferred edge replica whose composite capability lets the edge fill
	// from the origin depot, so the first tenant's miss warms every later
	// tenant's access down to LAN cost. Origin replicas remain for
	// failover when the edge is down or sheds.
	EdgeAddr string
	// Parallelism bounds concurrent depot streams per download (default 4).
	Parallelism int
	// PipelineWindow caps in-flight requests per pipelined depot
	// connection. The agent keeps one persistent multiplexed connection
	// per depot (kept untagged connections, as many, for depots that
	// don't speak PIPELINE), so every stripe of a view set and every
	// staging request rides an already-open socket. 0 or negative means
	// ibp.DefaultPipelineWindow.
	PipelineWindow int
	// StageParallelism is the number of concurrent staging transfers
	// (default 4) — the aggressiveness of the prestager, which "exploits
	// every bit of available network bandwidth" while the network is
	// otherwise vacant.
	StageParallelism int
	// Health is the depot circuit breaker shared by the fetch, prefetch,
	// and prestage paths, so none of them keeps hammering a dead or
	// flapping depot during its cooldown. Nil gets a default tracker;
	// callers inject their own to share it across agents or to tune the
	// threshold and cooldown.
	Health *lors.HealthTracker
	// Budget is the retry budget shared by every download this agent
	// performs (and, when injected, across agents): it caps cluster-wide
	// retry amplification during brownouts the way Health removes
	// individually dead depots. Nil gets a default budget.
	Budget *lors.RetryBudget
	// Retries is how many replica-list passes each extent download makes
	// (default 2 so a transient fault gets one backed-off second chance).
	Retries int
	// FetchTimeout bounds one view-set fetch flight (default 1m), and with
	// it the prefetches, which are flights nobody else waits for. Flights
	// run detached from any single caller's context — one impatient client
	// must not kill the fetch other clients share, buffered or streaming —
	// so this, not the caller's deadline, is what stops a wedged flight
	// (one that every caller has abandoned is cancelled at once).
	FetchTimeout time.Duration
	// Obs receives the agent.fetch.ms latency histograms and is threaded
	// through to the lors transfer layer; nil records into obs.Default().
	// The agent's own counts live in Stats, published by RegisterMetrics.
	Obs *obs.Registry
	// Tracer records one agent.getviewset span per request — GetViewSet,
	// GetViewSetStream, a viewer's move, a remote GETVS, a prefetch — with
	// the flight's resolve/download/stage spans under the root of the
	// request that started it; nil records into obs.DefaultTracer(),
	// visible at /debug/traces.
	Tracer *obs.Tracer
	// ReplicaBias, when set, scores depots for replica ordering in
	// downloads (lower is better); lors stable-sorts each extent's
	// shuffled replicas by it. Wire obs.DepotLatencyBias (or
	// slo.Stack.ReplicaBias) here so the agent drifts away from depots
	// whose recent p99 round-trip has regressed. Nil keeps pure shuffle.
	ReplicaBias func(depot string) float64
	// Rand seeds replica choices; nil uses a time-seeded source.
	//
	// Thread-safety: *rand.Rand is not safe for concurrent use, and the
	// agent's download workers and prestage goroutines run concurrently.
	// That is fine here because this value is only ever handed to
	// lors.DownloadOptions.Rand, and lors serializes every use of it under
	// a package-level mutex. Do not read from this Rand anywhere else in
	// the agent without adding equivalent locking.
	Rand *rand.Rand
}

// ClientAgentStats aggregates per-class access counts, including those
// made on behalf of prefetching.
type ClientAgentStats struct {
	Hits, LANFetches, WANFetches int64
	// EdgeFetches counts misses served entirely by the edge cache tier
	// (no WAN crossing by this agent; the edge may have filled once).
	EdgeFetches int64
	// Misses counts fetch flights that went to the network (one per view
	// set in flight, however many callers joined it).
	Misses     int64
	Prefetches int64
	// PrefetchUseful counts hits on a frame a prefetch loaded, each
	// prefetched frame credited at most once.
	PrefetchUseful int64
	Staged         int64
	StageErrors    int64
	// ReplicaTries/FailedAttempts/ChecksumErrors aggregate the transfer
	// accounting of every lors download the agent performed, so failovers
	// and detected corruption are visible at the agent level.
	ReplicaTries   int64
	FailedAttempts int64
	ChecksumErrors int64
	// Coalesced counts view-set requests that piggybacked on an identical
	// in-flight fetch instead of starting their own transfer.
	Coalesced int64
	// BusyRejections/BudgetExhausted surface the overload-control
	// accounting of the agent's downloads (depot BUSY sheds and retry
	// passes refused by the budget).
	BusyRejections  int64
	BudgetExhausted int64
}

// ClientAgent is the broker between clients and the LoN fabric: it caches
// view sets and exNodes, prefetches on cursor movement, and (when a LAN
// depot is configured) aggressively prestages the whole database by
// third-party copy in cursor-proximity order.
type ClientAgent struct {
	cfg    ClientAgentConfig
	cache  *lru.Cache // id.String() -> compressed frame
	excach *lru.Cache // id.String() -> exNode XML

	mu      sync.Mutex
	cursor  geom.Spherical
	haveCur bool
	staged  map[lightfield.ViewSetID]*exnode.ExNode
	staging map[lightfield.ViewSetID]bool // claimed by a staging worker
	stats   ClientAgentStats
	// userFlights counts users' flights in the air; idle (on mu) is signalled
	// when it falls to 0, when a move refills prefetchQ, and on a stop.
	userFlights int
	idle        sync.Cond
	prefetchQ   []lightfield.ViewSetID
	// flights holds the one fetch in progress per view set (flight.go):
	// every request that misses the cache joins it, whichever entry point
	// it came through.
	flights singleflight.Group[lightfield.ViewSetID, *fetch]
	// prefetched marks frames a prefetch loaded into the cache but no user
	// request has consumed yet; a later hit on one counts as prefetch-useful
	// (and clears the mark, so each prefetch is credited at most once).
	// Marks are also cleared when the frame is evicted before any hit —
	// otherwise entries for evicted-unconsumed frames leak forever and
	// inflate the usefulness metric's future numerator.
	prefetched map[string]bool
	// predictor follows the cursor for PrefetchPath (nil unless Prefetch).
	predictor *lightfield.TrajectoryPredictor

	// pipes holds one persistent pipelined connection per depot (and per
	// edge server, which speaks the same PIPELINE protocol), shared by
	// every download and staging copy this agent performs.
	pipes *ibp.PipePool

	life         context.Context // ends at Close
	stop         context.CancelFunc
	stageDone    chan struct{}
	prefetchDone chan struct{} // closed when the prefetch worker has returned
}

// NewClientAgent validates the configuration and builds the agent. Call
// StartPrestaging to launch the aggressive staging stage.
func NewClientAgent(cfg ClientAgentConfig) (*ClientAgent, error) {
	if cfg.Dataset == "" {
		return nil, errors.New("agent: client agent needs a dataset name")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.DVS == nil {
		return nil, errors.New("agent: client agent needs a DVS client")
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	if cfg.StageParallelism <= 0 {
		cfg.StageParallelism = 4
	}
	if cfg.Health == nil {
		cfg.Health = lors.NewHealthTracker(lors.HealthConfig{})
	}
	if cfg.Budget == nil {
		cfg.Budget = lors.NewRetryBudget(0, 0)
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = time.Minute
	}
	cache, err := lru.New(cfg.CacheBytes)
	if err != nil {
		return nil, err
	}
	excach, err := lru.New(exNodeCacheBytes)
	if err != nil {
		return nil, err
	}
	ca := &ClientAgent{
		cfg:        cfg,
		cache:      cache,
		excach:     excach,
		staged:     make(map[lightfield.ViewSetID]*exnode.ExNode),
		staging:    make(map[lightfield.ViewSetID]bool),
		prefetched: make(map[string]bool),
		pipes: &ibp.PipePool{
			Dialer: cfg.Dialer,
			Window: cfg.PipelineWindow,
			Obs:    cfg.Obs,
		},
	}
	ca.idle.L = &ca.mu
	ca.life, ca.stop = context.WithCancel(context.Background())
	ca.wakeOnDone(ca.life)
	if cfg.Prefetch {
		ca.predictor = lightfield.NewTrajectoryPredictor(cfg.Params)
		ca.prefetchDone = make(chan struct{})
		go ca.prefetchWorker()
	}
	// A frame evicted before any hit consumed it must drop its prefetch
	// mark, or the map entry leaks and a much later re-fetch+hit would be
	// credited to a prefetch that no longer exists.
	cache.SetOnEvict(func(key string) {
		ca.mu.Lock()
		delete(ca.prefetched, key)
		ca.mu.Unlock()
	})
	return ca, nil
}

// registry resolves the metrics destination.
func (ca *ClientAgent) registry() *obs.Registry {
	if ca.cfg.Obs != nil {
		return ca.cfg.Obs
	}
	return obs.Default()
}

// tracer resolves the span destination.
func (ca *ClientAgent) tracer() *obs.Tracer {
	if ca.cfg.Tracer != nil {
		return ca.cfg.Tracer
	}
	return obs.DefaultTracer()
}

// RegisterMetrics publishes this agent's Stats into reg (scraped as
// agent.* at /metrics), including the cache hit rate: the agent counts
// each event once, in Stats, and this is its only way onto /metrics.
// Daemons call it once after constructing the agent; passing nil
// publishes into obs.Default().
func (ca *ClientAgent) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	reg.RegisterSnapshot("agent", func() map[string]float64 {
		st := ca.Stats()
		cs := ca.CacheStats()
		hitRate := 0.0
		if total := cs.Hits + cs.Misses; total > 0 {
			hitRate = float64(cs.Hits) / float64(total)
		}
		return map[string]float64{
			"cache.hits":      float64(st.Hits),
			"cache.misses":    float64(st.Misses),
			"lan_fetches":     float64(st.LANFetches),
			"wan_fetches":     float64(st.WANFetches),
			"edge_fetches":    float64(st.EdgeFetches),
			"prefetch.issued": float64(st.Prefetches),
			"prefetch.useful": float64(st.PrefetchUseful),
			"stage.completed": float64(st.Staged),
			"stage.errors":    float64(st.StageErrors),
			"coalesced":       float64(st.Coalesced),
			"cache.hit_rate":  hitRate,
			"cache.used":      float64(cs.Used),
			"cache.entries":   float64(cs.Entries),
			"cache.evictions": float64(cs.Evictions),
			"staged_count":    float64(ca.StagedCount()),
		}
	})
}

// Close stops background work, waits for the prefetch worker, and tears
// down the pipelined depot connections and the DVS client's idle ones.
func (ca *ClientAgent) Close() {
	ca.stop()
	ca.pipes.Close()
	ca.cfg.DVS.CloseIdle()
	if ca.prefetchDone != nil {
		<-ca.prefetchDone
	}
}

// Stats returns a snapshot of agent counters.
func (ca *ClientAgent) Stats() ClientAgentStats {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.stats
}

// CacheStats exposes the view set cache accounting.
func (ca *ClientAgent) CacheStats() lru.Stats { return ca.cache.Stats() }

// Health exposes the agent's depot circuit breaker (never nil after
// NewClientAgent).
func (ca *ClientAgent) Health() *lors.HealthTracker { return ca.cfg.Health }

// addTransferStats folds one download's accounting into the agent stats.
func (ca *ClientAgent) addTransferStats(st lors.DownloadStats) {
	ca.mu.Lock()
	ca.stats.ReplicaTries += int64(st.ReplicaTries)
	ca.stats.FailedAttempts += int64(st.FailedAttempts)
	ca.stats.ChecksumErrors += int64(st.ChecksumErrors)
	ca.stats.BusyRejections += int64(st.BusyRejections)
	ca.stats.BudgetExhausted += int64(st.BudgetExhausted)
	ca.mu.Unlock()
}

// copyOpts builds the staging options for this agent.
func (ca *ClientAgent) copyOpts() lors.CopyOptions {
	return lors.CopyOptions{
		Lease:  stageLease,
		Policy: ibp.Volatile,
		Pipes:  ca.pipes,
		Health: ca.cfg.Health,
		Obs:    ca.cfg.Obs,
	}
}

// stage runs one third-party staging copy under its own span.
func (ca *ClientAgent) stage(ctx context.Context, ex *exnode.ExNode) (*exnode.ExNode, error) {
	_, span := ca.tracer().StartSpan(ctx, obs.SpanStage)
	defer span.Finish()
	staged, err := lors.CopyToStriped(ctx, ex, ca.cfg.LANDepots, ca.copyOpts())
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	return staged, err
}

// resolveExNodes returns the exNode replicas for a view set: the one an
// earlier fetch was served by, if the exNode cache still has it (cached),
// else every one the DVS lists.
func (ca *ClientAgent) resolveExNodes(ctx context.Context, id lightfield.ViewSetID) (exs []*exnode.ExNode, cached bool, err error) {
	ctx, span := ca.tracer().StartSpan(ctx, obs.SpanResolve)
	defer span.Finish()
	key := id.String()
	// A download allocates the exNode's length before its first byte, so
	// an exNode longer than any frame of these params is refused here.
	maxLen, err := ca.cfg.Params.MaxFrameLen()
	if err != nil {
		return nil, false, err
	}
	parse := func(doc []byte) *exnode.ExNode {
		if ex, err := exnode.Unmarshal(doc); err == nil && ex.Length <= int64(maxLen) {
			return ex
		}
		return nil
	}
	if xml, ok := ca.excach.Get(key); ok {
		if ex := parse(xml); ex != nil {
			return []*exnode.ExNode{ex}, true, nil
		}
		ca.excach.Remove(key) // cached garbage: drop and refetch
	}
	docs, err := ca.cfg.DVS.Get(ctx, dvs.Key{Dataset: ca.cfg.Dataset, ViewSet: key})
	if err != nil {
		return nil, false, err
	}
	out := make([]*exnode.ExNode, 0, len(docs))
	for _, doc := range docs {
		if ex := parse(doc); ex != nil {
			out = append(out, ex)
		}
	}
	if len(out) == 0 {
		return nil, false, fmt.Errorf("agent: no valid exNodes for %v", id)
	}
	return out, false, nil
}

func mustMarshal(ex *exnode.ExNode) []byte {
	data, err := ex.Marshal()
	if err != nil {
		return nil
	}
	return data
}

// recordHit folds one cache-served (or coalesced) access into the hit
// accounting, crediting the prefetcher when a user request consumes a
// frame a prefetch loaded.
func (ca *ClientAgent) recordHit(key string, viaPrefetch bool) {
	ca.mu.Lock()
	ca.stats.Hits++
	if !viaPrefetch && ca.prefetched[key] {
		delete(ca.prefetched, key)
		ca.stats.PrefetchUseful++
	}
	ca.mu.Unlock()
}

// downloadOpts builds the transfer options every agent download shares,
// including the persistent pipelined connection pool.
func (ca *ClientAgent) downloadOpts() lors.DownloadOptions {
	return lors.DownloadOptions{
		Dialer:      ca.cfg.Dialer,
		Parallelism: ca.cfg.Parallelism,
		Retries:     ca.cfg.Retries,
		Health:      ca.cfg.Health,
		Budget:      ca.cfg.Budget,
		Rand:        ca.cfg.Rand,
		Prefer:      ca.replicaPrefer(),
		Pipes:       ca.pipes,
		Obs:         ca.cfg.Obs,
		Tracer:      ca.cfg.Tracer,
	}
}

// replicaPrefer composes the replica-ordering bias: the edge tier (when
// configured) always sorts first, the configured ReplicaBias breaks ties
// among everything else.
func (ca *ClientAgent) replicaPrefer() func(depot string) float64 {
	bias := ca.cfg.ReplicaBias
	eaddr := ca.cfg.EdgeAddr
	if eaddr == "" {
		return bias
	}
	return func(depot string) float64 {
		if depot == eaddr {
			return math.Inf(-1)
		}
		if bias != nil {
			return bias(depot)
		}
		return 0
	}
}

// OnUserMove tells the agent where the cursor is. It reorders the staging
// queue and (if enabled) replaces the prefetch queue with the move's
// targets in the policy's order. The prefetch worker fetches those not
// cached; errors are counted, not surfaced.
func (ca *ClientAgent) OnUserMove(sp geom.Spherical) {
	ca.mu.Lock()
	ca.cursor = sp
	ca.haveCur = true
	ca.mu.Unlock()
	if !ca.cfg.Prefetch {
		return
	}
	var targets []lightfield.ViewSetID
	switch p := ca.cfg.Params; ca.cfg.PrefetchPolicy {
	case PrefetchQuadrant:
		targets = p.QuadrantPrefetch(sp)
	case PrefetchNeighbors:
		targets = p.Neighbors(p.ViewSetOf(p.NearestCamera(sp)))
	default:
		held := func(id lightfield.ViewSetID) bool { return ca.cache.Contains(id.String()) }
		if id, ok := ca.predictor.PathPrefetch(sp, held); ok {
			targets = []lightfield.ViewSetID{id}
		}
	}
	ca.mu.Lock()
	ca.prefetchQ = targets
	ca.idle.Broadcast()
	ca.mu.Unlock()
}

// foreground counts a user's flight in (+1) or out (-1) of the air.
func (ca *ClientAgent) foreground(d int) {
	ca.mu.Lock()
	if ca.userFlights += d; ca.userFlights == 0 {
		ca.idle.Broadcast()
	}
	ca.mu.Unlock()
}

// wakeOnDone wakes the waiters at the foreground gate when ctx ends.
func (ca *ClientAgent) wakeOnDone(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		ca.mu.Lock()
		ca.idle.Broadcast()
		ca.mu.Unlock()
	})
}

// await waits on idle, with ca.mu held, until ready() (true) or ctx or the
// agent ends (false). The foreground gate is a ready() of userFlights == 0.
func (ca *ClientAgent) await(ctx context.Context, ready func() bool) bool {
	for ctx.Err() == nil && ca.life.Err() == nil && !ready() {
		ca.idle.Wait()
	}
	return ctx.Err() == nil && ca.life.Err() == nil
}

// prefetchWorker is the agent's one prefetcher: it takes the queue's head
// when the foreground gate is open and fetches it to the end before the
// next. A prefetch in flight when a user's miss starts goes on: its bytes
// are on the pipe.
func (ca *ClientAgent) prefetchWorker() {
	defer close(ca.prefetchDone)
	for {
		ca.mu.Lock()
		if !ca.await(ca.life, func() bool { return ca.userFlights == 0 && len(ca.prefetchQ) > 0 }) {
			ca.mu.Unlock()
			return
		}
		id := ca.prefetchQ[0]
		ca.prefetchQ = ca.prefetchQ[1:]
		ca.mu.Unlock()
		ca.prefetch(id)
	}
}

// prefetch is a GetViewSet on the agent's own account that nobody waits
// for. A view set that is cached by now, or that somebody is fetching
// already, needs no prefetch and counts as none.
func (ca *ClientAgent) prefetch(id lightfield.ViewSetID) {
	if ca.cache.Contains(id.String()) {
		return
	}
	ctx, cancel := context.WithTimeout(ca.life, ca.cfg.FetchTimeout)
	defer cancel()
	a, err := ca.open(ctx, id, true)
	if err != nil {
		return
	}
	if !a.hit && a.call.Shared {
		a.call.Leave()
		return
	}
	ca.mu.Lock()
	ca.stats.Prefetches++
	ca.mu.Unlock()
	_, _, _ = a.finish()
}

// StartPrestaging launches the aggressive staging stage (paper Figure 5):
// a background loop that third-party-copies every view set onto the LAN
// depot, ordered by proximity to the cursor and reordered as it moves,
// until the whole database is local. The returned channel closes when
// staging completes or ctx/Close stops it.
func (ca *ClientAgent) StartPrestaging(ctx context.Context) (<-chan struct{}, error) {
	if len(ca.cfg.LANDepots) == 0 {
		return nil, errors.New("agent: prestaging needs at least one LAN depot")
	}
	ca.mu.Lock()
	if ca.stageDone != nil {
		done := ca.stageDone
		ca.mu.Unlock()
		return done, nil // already running
	}
	done := make(chan struct{})
	ca.stageDone = done
	ca.mu.Unlock()
	go func() {
		defer close(done)
		ca.prestageLoop(ctx)
	}()
	return done, nil
}

// nextToStage picks the unstaged view set to copy next under the
// configured order policy. claim=true atomically marks it as in-progress
// so concurrent staging workers never duplicate a transfer.
func (ca *ClientAgent) nextToStage(claim bool) (lightfield.ViewSetID, bool) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	cursor := ca.cursor
	if !ca.haveCur {
		cursor = ca.cfg.Params.SetCenterAngles(lightfield.ViewSetID{})
	}
	best := lightfield.ViewSetID{}
	bestDist := math.Inf(1)
	found := false
	for _, id := range ca.cfg.Params.AllViewSets() {
		if _, ok := ca.staged[id]; ok {
			continue
		}
		if ca.staging[id] {
			continue
		}
		if ca.cfg.StageOrderPolicy == StageSequential {
			best, found = id, true // AllViewSets is row-major
			break
		}
		d := ca.cfg.Params.AngularDistToSet(cursor, id)
		if d < bestDist {
			bestDist = d
			best = id
			found = true
		}
	}
	if found && claim {
		ca.staging[best] = true
	}
	return best, found
}

// prestageLoop runs StageParallelism concurrent staging workers until the
// database is localized or the agent stops.
func (ca *ClientAgent) prestageLoop(ctx context.Context) {
	defer ca.wakeOnDone(ctx)()
	var wg sync.WaitGroup
	for w := 0; w < ca.cfg.StageParallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ca.stageWorker(ctx)
		}()
	}
	wg.Wait()
}

func (ca *ClientAgent) stageWorker(ctx context.Context) {
	for {
		ca.mu.Lock()
		ok := ca.await(ctx, func() bool { return ca.userFlights == 0 || !ca.cfg.SuppressStageOnMiss })
		ca.mu.Unlock()
		if !ok {
			return
		}
		id, ok := ca.nextToStage(true)
		if !ok {
			return // entire dataset localized or claimed
		}
		err := ca.stageOne(ctx, id)
		ca.mu.Lock()
		delete(ca.staging, id)
		if err != nil {
			ca.stats.StageErrors++
			// Record a tombstone so the loop terminates; the fetch path
			// ignores nil entries.
			ca.staged[id] = nil
		}
		ca.mu.Unlock()
	}
}

// stageOne copies one view set to the LAN depot via third-party copy.
func (ca *ClientAgent) stageOne(ctx context.Context, id lightfield.ViewSetID) error {
	exs, cached, err := ca.resolveExNodes(ctx, id)
	if err != nil {
		return err
	}
	staged, err := ca.stage(ctx, exs[0])
	if err != nil {
		return err
	}
	ca.remember(id.String(), exs[0], cached)
	ca.mu.Lock()
	ca.staged[id] = staged
	ca.stats.Staged++
	ca.mu.Unlock()
	return nil
}

// StagedCount reports how many view sets are currently staged on the LAN
// depot (successful copies only).
func (ca *ClientAgent) StagedCount() int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	n := 0
	for _, ex := range ca.staged {
		if ex != nil {
			n++
		}
	}
	return n
}
