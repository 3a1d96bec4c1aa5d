package obs

// Canonical metric family names. Every metric the stack registers is
// named here, in one place, so docs/OBSERVABILITY.md can be audited
// against the source (scripts/docscheck.sh greps these constants) and so
// instrumentation sites cannot drift apart on spelling. Label-bearing
// families note their labels; Label folds them into the full name.
const (
	// --- ibp client (one per depot operation, recorded in Client.roundTrip) ---

	// MIBPOpMs: histogram, ms. One per operation verb: {op=ALLOCATE|STORE|...}.
	MIBPOpMs = "ibp.op.ms"
	// MIBPDepotMs: histogram, ms. One per depot address: {depot=host:port}.
	// The "which depot is slow" histogram of docs/OBSERVABILITY.md.
	MIBPDepotMs = "ibp.depot.ms"
	// MIBPOpErrors: counter. Failed operations, {op=...}.
	MIBPOpErrors = "ibp.op.errors"

	// --- ibp server / depot (recorded by ibp.Server.dispatch) ---

	// MIBPServerOpMs: histogram, ms per served verb: {op=...}.
	MIBPServerOpMs = "ibp.server.op.ms"
	// MIBPShed: counter. Requests rejected with BUSY by admission control,
	// {reason=queue_full|queue_wait|deadline}.
	MIBPShed = "ibp.shed"
	// MIBPInflight: gauge. Requests currently executing on the depot.
	MIBPInflight = "ibp.server.inflight"
	// MIBPQueueDepth: gauge. Requests waiting for an execution slot.
	MIBPQueueDepth = "ibp.server.queue_depth"

	// --- lors transfer layer ---

	// MLorsReplicaTries: counter. Replica load attempts, incl. failures.
	MLorsReplicaTries = "lors.download.replica_tries"
	// MLorsFailedAttempts: counter. Failed replica loads.
	MLorsFailedAttempts = "lors.download.failed_attempts"
	// MLorsChecksumErrors: counter. Failed attempts that were CRC mismatches.
	MLorsChecksumErrors = "lors.download.checksum_errors"
	// MLorsSkippedReplicas: counter. Replicas skipped on open circuits.
	MLorsSkippedReplicas = "lors.download.skipped_replicas"
	// MLorsRetryPasses: counter. Replica-list retry passes beyond the first.
	MLorsRetryPasses = "lors.download.retry_passes"
	// MLorsCircuitTrips: counter. Depot circuits opened by the breaker.
	MLorsCircuitTrips = "lors.circuit.trips"
	// MLorsCircuitOpen: gauge. Depots whose circuit is currently open.
	MLorsCircuitOpen = "lors.circuit.open"
	// MLorsBusyRejections: counter. Replica attempts answered BUSY by depot
	// admission control (treated as retryable-elsewhere, not depot failure).
	MLorsBusyRejections = "lors.download.busy_rejections"
	// MLorsRetryBudgetExhausted: counter. Retry passes skipped because the
	// token-bucket retry budget was empty (retry-storm clamp).
	MLorsRetryBudgetExhausted = "lors.retry_budget_exhausted"

	// --- directory services ---

	// MDVSServerOpMs: histogram, ms per served DVS verb: {op=GET|PUT|...}.
	MDVSServerOpMs = "dvs.server.op.ms"
	// MDVSShed: counter. DVS requests rejected with BUSY by admission
	// control, {reason=queue_full|queue_wait|deadline}.
	MDVSShed = "dvs.shed"
	// MDVSInflight: gauge. DVS requests currently executing.
	MDVSInflight = "dvs.server.inflight"
	// MDVSQueueDepth: gauge. DVS requests waiting for an execution slot.
	MDVSQueueDepth = "dvs.server.queue_depth"

	// --- client agent: agent.fetch.ms is recorded into the registry; the
	// counts are agent.ClientAgentStats, published by RegisterMetrics ---

	// MAgentFetchMs: histogram, ms end-to-end GetViewSet: {class=hit|lan-depot|wan|edge}.
	MAgentFetchMs = "agent.fetch.ms"
	// MAgentHits: counter. View set requests served from the agent cache.
	MAgentHits = "agent.cache.hits"
	// MAgentMisses: counter. View set requests that missed the cache.
	MAgentMisses = "agent.cache.misses"
	// MAgentHitRate: gauge via snapshot, hits/(hits+misses) of the LRU.
	MAgentHitRate = "agent.cache.hit_rate"
	// MAgentPrefetches: counter. Prefetch flights started (dropped targets count none).
	MAgentPrefetches = "agent.prefetch.issued"
	// MAgentPrefetchUseful: counter. Cache hits that a prefetch had loaded
	// (the prefetch-useful numerator; divide by agent.prefetch.issued).
	MAgentPrefetchUseful = "agent.prefetch.useful"
	// MAgentStaged: counter. View sets prestaged onto LAN depots.
	MAgentStaged = "agent.stage.completed"
	// MAgentStageErrors: counter. Failed prestaging transfers.
	MAgentStageErrors = "agent.stage.errors"
	// MAgentCoalesced: counter. View-set fetches that piggybacked on an
	// identical in-flight fetch instead of hitting the depots again.
	MAgentCoalesced = "agent.coalesced"

	// --- server agent render queue: the shed counts are
	// agent.ServerAgentStats, published by RegisterMetrics ---

	// MAgentRenderShed: counter. Render requests dropped by the bounded
	// LIFO queue, {reason=evicted|deadline}: evicted = pushed out by a
	// newer request when the queue was full (latest request wins), deadline
	// = every waiter's budget expired before the render started.
	MAgentRenderShed = "agent.render.shed"
	// MAgentServerRequests: counter. Render requests the server agent
	// took (the served count the fleet pairs with agent.render.shed).
	MAgentServerRequests = "agent.server.requests"
	// MAgentRenderQueueDepth: gauge. Render requests queued behind the
	// renderer.
	MAgentRenderQueueDepth = "agent.render.queue_depth"

	// --- steward: the histograms are recorded into the registry; the
	// counts are steward.Stats and HotSetReplicator.Stats, published by
	// their RegisterMetrics ---

	// MStewardCycles: counter. Completed scan cycles.
	MStewardCycles = "steward.cycles"
	// MStewardRenewals: counter. Leases renewed.
	MStewardRenewals = "steward.renewals"
	// MStewardRepairs: counter. Repair copies that succeeded.
	MStewardRepairs = "steward.repairs"
	// MStewardPruned: counter. Dead replicas pruned from exNodes.
	MStewardPruned = "steward.pruned"
	// MStewardExtentsLost: counter. Extents left with zero healthy replicas.
	MStewardExtentsLost = "steward.extents_lost"
	// MStewardAlertAudits: counter. Targeted audits run because an SLO
	// alert fired, ahead of the periodic cycle.
	MStewardAlertAudits = "steward.alert_audits"
	// MStewardHotsetWarms: counter. View sets replicated toward the edge
	// tier by the hot-set replicator ahead of demand.
	MStewardHotsetWarms = "steward.hotset.warms"
	// MStewardHotsetWarmErrors: counter. Hot-set warm attempts that failed.
	MStewardHotsetWarmErrors = "steward.hotset.warm_errors"

	// --- edge cache tier (internal/edge, served by cmd/lfedged): the
	// histograms and edge.shed are recorded into the registry; the counts
	// are edge.CacheStats, published by Cache.RegisterMetrics ---

	// MEdgeHits: counter. Edge LOADs served from the cached set (LAN cost).
	MEdgeHits = "edge.hits"
	// MEdgeMisses: counter. Edge LOADs that missed and went to a fill.
	MEdgeMisses = "edge.misses"
	// MEdgeFills: counter. Origin-depot fetches actually performed
	// (single-flight: concurrent misses on one extent fill once).
	MEdgeFills = "edge.fills"
	// MEdgeFillErrors: counter. Fills that failed (clients fail over to
	// the origin replicas).
	MEdgeFillErrors = "edge.fill_errors"
	// MEdgeServeMs: histogram, ms per served request: {op=LOAD|STATUS}.
	MEdgeServeMs = "edge.serve.ms"
	// MEdgeShed: counter. Edge requests rejected with BUSY,
	// {reason=queue_full|queue_wait|deadline}.
	MEdgeShed = "edge.shed"

	// --- shared buffer pool (internal/bufpool, bridged by RegisterMetrics) ---

	// MBufpoolGets: counter. Buffers requested from the pool.
	MBufpoolGets = "bufpool.gets"
	// MBufpoolMisses: counter. Gets that had to allocate a fresh buffer.
	MBufpoolMisses = "bufpool.misses"
	// MBufpoolPuts: counter. Buffers returned to the pool for reuse.
	MBufpoolPuts = "bufpool.puts"
	// MBufpoolOversize: counter. Gets larger than the biggest size class,
	// allocated directly and never pooled.
	MBufpoolOversize = "bufpool.oversize"
	// MBufpoolBytesCopied: counter. Payload bytes that crossed a
	// CopyTracked call — the residual memcpy budget of the zero-copy
	// data plane. A rising rate here means a hot path regressed into
	// copying again.
	MBufpoolBytesCopied = "bufpool.bytes_copied"

	// --- ibp pipelined transport (ibp.Pipe / ibp.PipePool) ---

	// MIBPPipeOps: counter. Operations issued through a PipePool,
	// {mode=pipelined|serial}; serial counts fallbacks to one-shot
	// connections against depots that do not speak PIPELINE.
	MIBPPipeOps = "ibp.pipe.ops"
	// MIBPPipeFallbacks: counter. Depots detected as old-protocol
	// (PIPELINE answered with ERR), pinned to serial mode.
	MIBPPipeFallbacks = "ibp.pipe.fallbacks"

	// --- SLO engine (internal/obs/slo) ---

	// MSLOAlertsFiring: gauge. Alerts currently in the firing state.
	MSLOAlertsFiring = "slo.alerts.firing"

	// --- Go runtime (internal/obs/prof harvester, sampled each TSDB tick) ---

	// MRuntimeGCPauseMs: histogram, ms per GC stop-the-world pause (folded
	// from /gc/pauses:seconds bucket deltas).
	MRuntimeGCPauseMs = "runtime.go.gc.pause.ms"
	// MRuntimeSchedLatencyMs: histogram, ms a runnable goroutine waited for
	// a thread (folded from /sched/latencies:seconds bucket deltas). A fat
	// tail here means the process is CPU-starved or GOMAXPROCS-saturated.
	MRuntimeSchedLatencyMs = "runtime.go.sched.latency.ms"
	// MRuntimeHeapLiveBytes: gauge. Live heap bytes after the last GC.
	MRuntimeHeapLiveBytes = "runtime.go.heap.live.bytes"
	// MRuntimeHeapGoalBytes: gauge. The pacer's current heap-size goal.
	MRuntimeHeapGoalBytes = "runtime.go.heap.goal.bytes"
	// MRuntimeGoroutines: gauge. Live goroutine count.
	MRuntimeGoroutines = "runtime.go.goroutines"
	// MRuntimeMutexWaitMs: counter. Cumulative ms goroutines spent blocked
	// on sync.Mutex/RWMutex (from /sync/mutex/wait/total:seconds).
	MRuntimeMutexWaitMs = "runtime.go.mutex.wait.ms"
	// MRuntimeAllocBytes: counter. Cumulative heap bytes allocated; its
	// TSDB rate is the process's allocation throughput.
	MRuntimeAllocBytes = "runtime.go.alloc.bytes"
	// MRuntimeGCCycles: counter. Completed GC cycles.
	MRuntimeGCCycles = "runtime.go.gc.cycles"

	// --- flight recorder (internal/obs/prof.Recorder) ---

	// MCaptureBundles: counter. Forensic capture bundles recorded,
	// {trigger=alert|manual}.
	MCaptureBundles = "capture.bundles"
	// MCaptureSuppressed: counter. Capture triggers suppressed by the
	// cooldown or an in-flight capture (flap damping for the recorder).
	MCaptureSuppressed = "capture.suppressed"

	// --- obs self-accounting ---

	// MObsLabelOverflow: counter. Labeled metric lookups folded into the
	// per-family "other" instance by the registry's cardinality guard. A
	// nonzero value means some call site is labeling with an unbounded
	// value set (see Registry.MaxLabelInstances).
	MObsLabelOverflow = "obs.label_overflow"
	// MProcessUptime: gauge via snapshot, seconds since this process's
	// observability endpoint started serving. The fleet scraper reads it
	// for the health matrix's uptime column.
	MProcessUptime = "process.uptime_s"

	// --- fleet federation (internal/obs/fleet, hosted by lfsteward) ---

	// MFleetMembers: gauge. Fleet members by state, {state=up|degraded|down}.
	MFleetMembers = "fleet.members"
	// MFleetScrapes: counter. Completed fleet scrape passes.
	MFleetScrapes = "fleet.scrapes"
	// MFleetScrapeErrors: counter in the fleet snapshot. Failed pulls per
	// member, {node=addr}; node=lbone counts failed directory sweeps.
	MFleetScrapeErrors = "fleet.scrape.errors"
	// MFleetFPS: gauge. Fleet-wide frames per second: summed reset-aware
	// view-set fetch rates of every member exposing agent.fetch.ms.
	MFleetFPS = "fleet.fps"
	// MFleetShed: counter. Cluster-level shed volume: per-node reset-aware
	// increases of ibp.shed, dvs.shed, edge.shed, and agent.render.shed
	// folded into one monotonic series (the fleet shed-burn numerator).
	MFleetShed = "fleet.shed"
	// MFleetServed: counter. Cluster-level served volume: per-node
	// reset-aware increases of the server-side op histograms folded into
	// one monotonic series (the fleet shed-burn denominator).
	MFleetServed = "fleet.served"
	// MFleetCoverage: gauge. Live replicas of one published exNode's
	// thinnest extent, {exnode=name}: layouts intersected with the depot
	// members currently up, so a dying depot moves it immediately.
	MFleetCoverage = "fleet.replica.coverage"
	// MFleetCoverageMin: gauge. Minimum fleet.replica.coverage across all
	// published exNodes — the series the replica-coverage fleet rule
	// watches.
	MFleetCoverageMin = "fleet.replica.coverage.min"
	// MFleetDegradedRatio: gauge. Fraction of depot members not in the up
	// state (degraded or down over total registered depots).
	MFleetDegradedRatio = "fleet.depots.degraded_ratio"
	// MFleetLatencySpreadMs: gauge. Per-depot latency spread: max minus
	// min of the depot members' served-op p99 — a wide spread names a
	// straggler dragging the whole pipeline (the weakest-node view).
	MFleetLatencySpreadMs = "fleet.depot.latency.spread.ms"
	// MFleetNodeP99Ms: gauge. One member's served-op p99 as scraped,
	// {family=..., node=addr} — the per-node series behind the health
	// matrix's latency column and lftop -fleet sparklines.
	MFleetNodeP99Ms = "fleet.node.p99.ms"
)

// Span names used by the request-scoped traces at /debug/traces.
const (
	// SpanGetViewSet is the root span of one client-agent frame fetch.
	SpanGetViewSet = "agent.getviewset"
	// SpanResolve covers DVS exNode resolution inside a fetch.
	SpanResolve = "agent.resolve"
	// SpanDownload covers one lors.Download inside a fetch.
	SpanDownload = "agent.download"
	// SpanStage covers one staging third-party copy inside a fetch.
	SpanStage = "agent.stage"
	// SpanIBPServe is a depot's server-side span for one IBP verb, parented
	// under the calling client's span via the trace= line token: {op=...}.
	SpanIBPServe = "ibp.serve"
	// SpanDVSServe is the DVS server's span for one served verb: {op=...}.
	SpanDVSServe = "dvs.serve"
	// SpanLBoneServe is the L-Bone server's span for one HTTP request,
	// parented via the X-Lonviz-Trace header: {op=register|lookup}.
	SpanLBoneServe = "lbone.serve"
	// SpanRenderServe is the server agent's span for one RENDER request.
	SpanRenderServe = "render.serve"
	// SpanLorsExtent covers one extent fetch (all failover passes) inside
	// a lors.Download.
	SpanLorsExtent = "lors.extent"
	// SpanLorsAttempt covers one replica load attempt inside an extent
	// fetch; failed attempts carry an "err" attribute, making the paper's
	// mid-download depot failover visible in the merged tree.
	SpanLorsAttempt = "lors.attempt"
	// SpanStewardCycle covers one steward scan cycle.
	SpanStewardCycle = "steward.cycle"
	// SpanStewardRepair covers one steward repair copy.
	SpanStewardRepair = "steward.repair"
	// SpanStewardAlertAudit covers one alert-triggered targeted audit
	// (the steward reacting to a firing SLO alert ahead of its cycle).
	SpanStewardAlertAudit = "steward.alert_audit"
	// SpanSLOEvaluate covers one SLO rule-evaluation pass; alert
	// transition events stamp its trace ID, joining /debug/alerts state
	// changes against /debug/events.
	SpanSLOEvaluate = "slo.evaluate"
	// SpanEdgeServe is the edge tier's server-side span for one served
	// verb, parented under the calling client's span: {op=LOAD|STATUS}.
	SpanEdgeServe = "edge.serve"
	// SpanEdgeFill covers one origin-depot fill inside an edge miss.
	SpanEdgeFill = "edge.fill"
	// SpanFleetScrape covers one fleet scrape pass, recorded only on
	// passes where a member changed state (recording every pass would
	// flood the ring at the poll rate); the fleet.member events stamp its
	// trace ID.
	SpanFleetScrape = "fleet.scrape"
)

// Event names used by the structured log at /debug/events. Events are
// the narrative complement to spans: low-rate, high-signal moments
// (failovers, trips, repairs) stamped with the active trace/span ID so
// they join against /debug/traces across hosts.
const (
	// EvLorsFailover: warn. A replica load attempt failed and the download
	// is moving to the next replica; fields: extent, replica, err.
	EvLorsFailover = "lors.failover"
	// EvLorsCircuitOpen: warn. The health tracker opened a depot's
	// circuit; fields: depot.
	EvLorsCircuitOpen = "lors.circuit_open"
	// EvAgentFetch: debug (one per access is too chatty for info). One
	// GetViewSet completed; fields: viewset, class, ms.
	EvAgentFetch = "agent.fetch"
	// EvIBPServeErr: warn. A depot answered a request with ERR; fields:
	// op, peer.
	EvIBPServeErr = "ibp.serve_err"
	// EvWirePanic: error. A verb handler panicked; its connection was
	// closed and the server goes on serving; fields: component, peer,
	// panic.
	EvWirePanic = "wire.panic"
	// EvWireStopped: error. A server's accept loop ended on a listener
	// error other than Close; fields: component, addr, err.
	EvWireStopped = "wire.stopped"
	// EvShed: warn. Admission control rejected or dropped work under
	// overload; fields: component, reason.
	EvShed = "overload.shed"
	// EvStewardRepairDone: info, warn when ok=false. A repair copy
	// finished, or found no candidate depot (depot ""); fields: dataset,
	// extent, depot, ok, and err when it failed.
	EvStewardRepairDone = "steward.repair_done"
	// EvStewardRenew: debug (one per replica per lease term). The steward
	// extended a lease; fields: dataset, extent, depot.
	EvStewardRenew = "steward.renew"
	// EvStewardRenewFailed: warn. A lease renewal failed on a live
	// allocation; fields: dataset, extent, depot, err.
	EvStewardRenewFailed = "steward.renew_failed"
	// EvStewardVerifyFailed: warn. A sampled replica's payload failed to
	// load or to verify, so the replica is treated as dead; fields:
	// dataset, extent, depot, err.
	EvStewardVerifyFailed = "steward.verify_failed"
	// EvStewardPrune: info. A dead replica was dropped from its exNode;
	// fields: dataset, extent, depot.
	EvStewardPrune = "steward.prune"
	// EvStewardExtentLost: warn. An extent has no healthy replica left;
	// fields: dataset, extent.
	EvStewardExtentLost = "steward.extent_lost"
	// EvStewardPublish: info. An updated exNode was published; fields:
	// dataset.
	EvStewardPublish = "steward.publish"
	// EvStewardPublishFailed: warn. Publishing an updated exNode failed
	// (retried next cycle); fields: dataset, err.
	EvStewardPublishFailed = "steward.publish_failed"
	// EvSLOAlert: warn on firing, info on resolved. An SLO alert changed
	// state; fields: rule, instance, state, severity, value, threshold.
	EvSLOAlert = "slo.alert"
	// EvStewardAlertTrigger: info. The steward received a firing alert
	// and queued a targeted audit; fields: rule, depot.
	EvStewardAlertTrigger = "steward.alert_trigger"
	// EvEdgeFillErr: warn. An edge origin fill failed (clients fall back
	// to origin replicas); fields: origin, hint, err.
	EvEdgeFillErr = "edge.fill_err"
	// EvStewardHotsetWarm: info, warn when ok=false. The hot-set
	// replicator warmed one view set into the edge tier; fields: hint, ok,
	// and err when it failed.
	EvStewardHotsetWarm = "steward.hotset_warm"
	// EvCaptureBundle: info. The flight recorder finished a forensic
	// bundle; fields: id, trigger, files, bytes.
	EvCaptureBundle = "capture.bundle"
	// EvFleetMember: warn when a member leaves the up state, info when it
	// returns. One fleet member's health-matrix state changed; fields:
	// node, kind, from, to, err.
	EvFleetMember = "fleet.member"
)
