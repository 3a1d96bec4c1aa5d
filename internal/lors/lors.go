// Package lors implements the Logistical Runtime System layer of the
// network storage stack (paper Figure 1): tools that compose primitive IBP
// operations into whole-object transfers. Upload stripes an object across
// depots with replication and returns an exNode; Download reassembles the
// object with multi-threaded parallel reads, replica failover, and
// optional replica racing — the high-performance wide-area download
// algorithms of Plank et al. (paper reference [14]).
//
// The layer is self-healing over degraded links, not just dead ones:
// every extent carries a CRC32 written at upload time and verified on
// every load (a corrupted payload counts as a failed attempt and triggers
// failover), replica-list passes are separated by bounded exponential
// backoff with jitter, and an optional HealthTracker circuit breaker
// steers traffic away from depots that keep failing.
//
// Every transfer records into an internal/obs registry (the Obs field on
// the option structs; nil means the process-wide default): download,
// upload, and staging latency histograms, byte counters, failover and
// checksum counters, and circuit-breaker trip/open metrics — the
// lors.* families of docs/OBSERVABILITY.md.
package lors

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
	"lonviz/internal/obs"
)

// registryOr resolves the metrics destination for an options struct.
func registryOr(reg *obs.Registry) *obs.Registry {
	if reg != nil {
		return reg
	}
	return obs.Default()
}

// replicaRand orders replica attempts when DownloadOptions.Rand is nil. A
// single package-level seeded source behind a mutex is cheaper than a
// source per fetch, and two extents fetched in the same nanosecond no
// longer shuffle identically.
var (
	replicaRandMu sync.Mutex
	replicaRand   = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// lockedShuffle shuffles reps with rng (or the package source when rng is
// nil) under the package mutex, so one *rand.Rand shared across the
// concurrent extent fetches of a Download is safe.
func lockedShuffle(rng *rand.Rand, reps []exnode.Replica) {
	replicaRandMu.Lock()
	defer replicaRandMu.Unlock()
	if rng == nil {
		rng = replicaRand
	}
	rng.Shuffle(len(reps), func(i, j int) { reps[i], reps[j] = reps[j], reps[i] })
}

// lockedFloat64 draws one uniform sample for backoff jitter.
func lockedFloat64(rng *rand.Rand) float64 {
	replicaRandMu.Lock()
	defer replicaRandMu.Unlock()
	if rng == nil {
		rng = replicaRand
	}
	return rng.Float64()
}

// UploadOptions configures Upload.
type UploadOptions struct {
	// Depots are candidate depot addresses; stripes round-robin across
	// them. Required, at least Replicas distinct entries.
	Depots []string
	// StripeSize is the extent size in bytes (default 256 KiB).
	StripeSize int64
	// Replicas is the number of copies per stripe on distinct depots
	// (default 1).
	Replicas int
	// Lease is the allocation lease requested from depots (default 10m).
	Lease time.Duration
	// Policy is the IBP allocation policy (default Stable).
	Policy ibp.Policy
	// Dialer shapes depot connections when Pipes is nil; nil means plain
	// TCP.
	Dialer ibp.Dialer
	// Parallelism bounds concurrent stripe uploads (default 4).
	Parallelism int
	// Pipes carries the upload's ALLOCATE, STORE and FREE requests over
	// the caller's kept depot connections; nil keeps connections for this
	// one call and closes them on return.
	Pipes *ibp.PipePool
	// Obs receives upload timings and byte counters (lors.upload.*); nil
	// records into obs.Default().
	Obs *obs.Registry
}

func (o *UploadOptions) defaults() error {
	if len(o.Depots) == 0 {
		return errors.New("lors: no depots")
	}
	if o.StripeSize <= 0 {
		o.StripeSize = 256 * 1024
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	distinct := map[string]bool{}
	for _, d := range o.Depots {
		distinct[d] = true
	}
	if o.Replicas > len(distinct) {
		return fmt.Errorf("lors: %d replicas need %d distinct depots, have %d",
			o.Replicas, o.Replicas, len(distinct))
	}
	if o.Lease == 0 {
		o.Lease = 10 * time.Minute
	}
	if o.Policy == "" {
		o.Policy = ibp.Stable
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	return nil
}

// scoped returns pipes, or when it is nil a pool kept for one call, and
// the func that closes what it made.
func scoped(pipes *ibp.PipePool, dialer ibp.Dialer, reg *obs.Registry) (*ibp.PipePool, func()) {
	if pipes != nil {
		return pipes, func() {}
	}
	pp := &ibp.PipePool{Dialer: dialer, Obs: reg}
	return pp, func() { pp.Close() }
}

// Upload stripes data across depots and returns the exNode describing it.
// Each stripe is stored on Replicas distinct depots chosen round-robin,
// and each extent records the CRC32 of its payload so downloads can detect
// depot-side corruption.
func Upload(ctx context.Context, name string, data []byte, opts UploadOptions) (*exnode.ExNode, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	var done func()
	opts.Pipes, done = scoped(opts.Pipes, opts.Dialer, opts.Obs)
	defer done()
	ex := &exnode.ExNode{
		Name:     name,
		Length:   int64(len(data)),
		Checksum: exnode.ChecksumOf(data),
	}
	if len(data) == 0 {
		return ex, nil
	}
	type job struct {
		idx         int
		offset, end int64
	}
	var jobs []job
	for off := int64(0); off < int64(len(data)); off += opts.StripeSize {
		end := off + opts.StripeSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		jobs = append(jobs, job{idx: len(jobs), offset: off, end: end})
	}
	extents := make([]exnode.Extent, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, opts.Parallelism)
	var wg sync.WaitGroup
	for _, j := range jobs {
		// Acquire a slot inside a select so cancellation cannot strand the
		// dispatcher behind workers that hold every slot.
		select {
		case <-ctx.Done():
			errs[j.idx] = ctx.Err()
			continue
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			ext, err := uploadStripe(ctx, data[j.offset:j.end], j, opts)
			extents[j.idx] = ext
			errs[j.idx] = err
		}(j)
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
	ex.Extents = extents
	if err := ex.Validate(); err != nil {
		return nil, fmt.Errorf("lors: built invalid exnode: %w", err)
	}
	return ex, nil
}

// uploadStripe stores one stripe on Replicas distinct depots.
func uploadStripe(ctx context.Context, chunk []byte, j struct {
	idx         int
	offset, end int64
}, opts UploadOptions) (exnode.Extent, error) {
	ext := exnode.Extent{
		Offset:   j.offset,
		Length:   j.end - j.offset,
		Checksum: exnode.ChecksumOf(chunk),
	}
	placed := 0
	tried := map[string]bool{}
	// Recorded lease expiry for the replicas placed below. Measured before
	// the allocations, so it never overstates what the depot granted.
	expiry := time.Now().Add(opts.Lease)
	// Start each stripe on a different depot for balance, then walk.
	for step := 0; placed < opts.Replicas && step < 2*len(opts.Depots); step++ {
		if err := ctx.Err(); err != nil {
			return ext, err
		}
		addr := opts.Depots[(j.idx+step)%len(opts.Depots)]
		if tried[addr] {
			continue
		}
		tried[addr] = true
		cl := opts.Pipes.Client(addr)
		caps, err := cl.Allocate(ctx, ext.Length, opts.Lease, opts.Policy)
		if err != nil {
			continue // admission refusal or dead depot: try the next
		}
		if err := cl.Store(ctx, caps.Write, 0, chunk); err != nil {
			// The allocation succeeded but the store didn't: free it so a
			// half-written depot isn't left holding a leaked allocation
			// until lease expiry.
			_ = cl.Free(context.WithoutCancel(ctx), caps.Manage)
			continue
		}
		rep := exnode.Replica{
			Depot:     addr,
			ReadCap:   caps.Read,
			ManageCap: caps.Manage,
		}
		rep.SetExpiry(expiry)
		ext.Replicas = append(ext.Replicas, rep)
		placed++
	}
	if placed < opts.Replicas {
		return ext, fmt.Errorf("lors: stripe at %d: placed %d of %d replicas", j.offset, placed, opts.Replicas)
	}
	return ext, nil
}

// DownloadOptions configures Download.
type DownloadOptions struct {
	// Dialer shapes depot connections when Pipes is nil; nil means plain
	// TCP.
	Dialer ibp.Dialer
	// Parallelism bounds concurrent extent downloads (default 4). This is
	// the paper's "simultaneous downloads in parallel" knob.
	Parallelism int
	// RaceReplicas fetches every replica of an extent concurrently and
	// takes the first success, instead of sequential failover. Higher
	// throughput variance resistance at the cost of redundant transfer
	// (progressive-redundancy download, reference [14]).
	RaceReplicas bool
	// Retries is how many times the full replica list is retried per
	// extent before giving up (default 1, i.e. one pass).
	Retries int
	// BackoffBase is the delay before the second replica-list pass; each
	// further pass doubles it, capped at BackoffMax, with uniform jitter
	// in [1/2, 1) of the computed delay (default 50ms).
	BackoffBase time.Duration
	// BackoffMax caps the between-pass delay (default 2s).
	BackoffMax time.Duration
	// Health, when set, is consulted before every replica attempt and told
	// about every outcome: replicas on circuit-open depots are skipped for
	// the cooldown, so a dead or flapping depot is not hammered.
	Health *HealthTracker
	// Budget, when set, caps retry amplification across every download
	// sharing it: a retry pass that finds the token bucket empty fails the
	// extent instead of re-hammering depots that are slow precisely
	// because everyone is retrying. nil allows every configured retry.
	Budget *RetryBudget
	// Rand orders replica attempts; nil uses the package-level seeded
	// source.
	Rand *rand.Rand
	// Prefer, when set, scores a depot for replica ordering: after the
	// shuffle, replicas are stable-sorted by ascending score, so
	// lower-scoring depots are attempted first while equal scores keep
	// the shuffled spread. obs.DepotLatencyBias builds the standard
	// score (recent p99 round-trip from the TSDB history), steering
	// downloads away from depots whose latency has regressed before
	// their circuit ever trips.
	Prefer func(depot string) float64
	// Pipes carries extent loads over the caller's kept depot connections
	// (ibp.PipePool): payloads land directly in the caller's destination
	// buffer with no intermediate allocation, and depots that don't speak
	// PIPELINE are reached over kept untagged connections. nil keeps
	// connections for this one call and closes them on return.
	Pipes *ibp.PipePool
	// OnPrefix, when set, is invoked with the byte length of the
	// verified contiguous prefix of the object each time it grows — the
	// hook streaming consumers use to decompress while later extents are
	// still in flight: set it to the Advance of a codec.StreamBuffer over
	// the destination buffer, and read the frame through that buffer's
	// cursors (the client agent's flight does). Calls are serialized and
	// the argument is strictly increasing, ending with the object length
	// on success. The callback must not block: it runs on extent-fetch
	// goroutines.
	OnPrefix func(n int64)
	// Obs receives download timings and transfer counters
	// (lors.download.*); nil records into obs.Default().
	Obs *obs.Registry
	// Tracer receives per-extent and per-attempt spans (lors.extent /
	// lors.attempt) when the download runs under an active trace; nil
	// records into obs.DefaultTracer().
	Tracer *obs.Tracer
}

func (o *DownloadOptions) defaults() {
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	if o.Retries <= 0 {
		o.Retries = 1
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
}

// loadInto fetches one replica's payload directly into dst. len(dst) is
// the requested length.
func (o *DownloadOptions) loadInto(ctx context.Context, rep exnode.Replica, dst []byte) error {
	return o.Pipes.LoadInto(ctx, rep.Depot, rep.ReadCap, rep.AllocOffset, dst)
}

// span opens a child span when the download is actually being traced
// (propagation on AND an active parent span in ctx); otherwise it returns
// ctx unchanged and a nil (inert) span, so untraced downloads pay no
// tracing allocations. The returned context carries the span, which is
// what makes the ibp client stamp the attempt's own span ID onto the
// wire token — a failover retry is then visible as sibling lors.attempt
// spans in the merged tree, each with its depot-side ibp.serve child.
func (o *DownloadOptions) span(ctx context.Context, name string) (context.Context, *obs.Span) {
	if !obs.PropagationEnabled() || obs.SpanFromContext(ctx) == nil {
		return ctx, nil
	}
	tr := o.Tracer
	if tr == nil {
		tr = obs.DefaultTracer()
	}
	return tr.StartSpan(ctx, name)
}

// backoff sleeps before retry pass attempt (1-based), ctx-aware.
func (o *DownloadOptions) backoff(ctx context.Context, attempt int) error {
	d := o.BackoffBase << (attempt - 1)
	if d > o.BackoffMax || d <= 0 {
		d = o.BackoffMax
	}
	// Jitter into [d/2, d) so retrying extents don't synchronize.
	d = d/2 + time.Duration(lockedFloat64(o.Rand)*float64(d/2))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// DownloadStats reports transfer accounting for one Download call.
type DownloadStats struct {
	Bytes           int64 // payload bytes assembled
	ExtentFetches   int   // extents fetched
	ReplicaTries    int   // replica load attempts, including failures
	FailedAttempts  int   // failed replica loads (refusals, errors, corruption)
	ChecksumErrors  int   // failed attempts that were checksum mismatches
	Skipped         int   // replicas skipped because their depot's circuit was open
	BusyRejections  int   // attempts shed by depot admission control (BUSY)
	BudgetExhausted int   // retry passes refused by the retry budget
	// ServedBy counts successful extent serves per depot address, so
	// callers can tell which tier actually delivered the bytes (every
	// extent served by the edge tier vs. any WAN depot crossing). nil
	// until the first success.
	ServedBy map[string]int
}

// served records one successful extent serve from depot.
func (s *DownloadStats) served(depot string) {
	if s.ServedBy == nil {
		s.ServedBy = make(map[string]int)
	}
	s.ServedBy[depot]++
}

// add accumulates per-extent stats into a download-wide total.
func (s *DownloadStats) add(o DownloadStats) {
	s.ReplicaTries += o.ReplicaTries
	s.FailedAttempts += o.FailedAttempts
	s.ChecksumErrors += o.ChecksumErrors
	s.Skipped += o.Skipped
	s.BusyRejections += o.BusyRejections
	s.BudgetExhausted += o.BudgetExhausted
	for depot, n := range o.ServedBy {
		if s.ServedBy == nil {
			s.ServedBy = make(map[string]int)
		}
		s.ServedBy[depot] += n
	}
}

// Download reassembles an exNode's payload from the network.
func Download(ctx context.Context, ex *exnode.ExNode, opts DownloadOptions) ([]byte, DownloadStats, error) {
	out := make([]byte, ex.Length)
	stats, err := DownloadInto(ctx, ex, out, opts)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// DownloadInto reassembles an exNode's payload directly into dst, whose
// length must equal the exNode length. Extent payloads travel from the
// depot socket into dst with no intermediate buffer (failover path), so
// callers that own a long-lived frame buffer cross process memory once.
// When OnPrefix is set, it fires as the verified contiguous prefix grows.
func DownloadInto(ctx context.Context, ex *exnode.ExNode, dst []byte, opts DownloadOptions) (DownloadStats, error) {
	opts.defaults()
	var done func()
	opts.Pipes, done = scoped(opts.Pipes, opts.Dialer, opts.Obs)
	defer done()
	var stats DownloadStats
	reg := registryOr(opts.Obs)
	defer func() {
		reg.Counter(obs.MLorsReplicaTries).Add(int64(stats.ReplicaTries))
		reg.Counter(obs.MLorsFailedAttempts).Add(int64(stats.FailedAttempts))
		reg.Counter(obs.MLorsChecksumErrors).Add(int64(stats.ChecksumErrors))
		reg.Counter(obs.MLorsSkippedReplicas).Add(int64(stats.Skipped))
		reg.Counter(obs.MLorsBusyRejections).Add(int64(stats.BusyRejections))
		reg.Counter(obs.MLorsRetryBudgetExhausted).Add(int64(stats.BudgetExhausted))
	}()
	if err := ex.Validate(); err != nil {
		return stats, err
	}
	if int64(len(dst)) != ex.Length {
		return stats, fmt.Errorf("lors: destination is %d bytes, object is %d", len(dst), ex.Length)
	}
	extents := ex.SortedExtents()
	// Verified-prefix tracking for streaming consumers: extents complete
	// out of order, so completion advances a frontier over the sorted
	// extent list and reports the contiguous byte count covered so far.
	var prefixMu sync.Mutex
	completed := make([]bool, len(extents))
	frontier := 0
	notifyDone := func(i int) {
		if opts.OnPrefix == nil {
			return
		}
		prefixMu.Lock()
		defer prefixMu.Unlock()
		completed[i] = true
		advanced := false
		for frontier < len(extents) && completed[frontier] {
			frontier++
			advanced = true
		}
		if !advanced {
			return
		}
		prefix := ex.Length
		if frontier < len(extents) {
			prefix = extents[frontier].Offset
		}
		opts.OnPrefix(prefix)
	}
	sem := make(chan struct{}, opts.Parallelism)
	var wg sync.WaitGroup
	errs := make([]error, len(extents))
	var statsMu sync.Mutex
	for i, ext := range extents {
		select {
		case <-ctx.Done():
			errs[i] = ctx.Err()
			continue
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int, ext exnode.Extent) {
			defer wg.Done()
			defer func() { <-sem }()
			st, err := fetchExtent(ctx, ext, dst[ext.Offset:ext.Offset+ext.Length], opts)
			statsMu.Lock()
			stats.add(st)
			stats.ExtentFetches++
			statsMu.Unlock()
			errs[i] = err
			if err == nil {
				notifyDone(i)
			}
		}(i, ext)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	stats.Bytes = ex.Length
	return stats, nil
}

// errAllCircuitsOpen reports an extent whose every replica sits behind an
// open circuit; retries wait out the backoff and look again.
var errAllCircuitsOpen = errors.New("lors: every replica depot is circuit-open")

// fetchExtent fills dst with one extent's bytes using failover or racing.
// Loaded bytes are verified against the extent checksum before use: a
// corrupted payload is a failed attempt, never returned data.
func fetchExtent(ctx context.Context, ext exnode.Extent, dst []byte, opts DownloadOptions) (DownloadStats, error) {
	var stats DownloadStats
	ctx, espan := opts.span(ctx, obs.SpanLorsExtent)
	espan.SetAttr("offset", strconv.FormatInt(ext.Offset, 10))
	espan.SetAttr("length", strconv.FormatInt(ext.Length, 10))
	defer espan.Finish()
	replicas := append([]exnode.Replica{}, ext.Replicas...)
	lockedShuffle(opts.Rand, replicas)
	if opts.Prefer != nil {
		// Score once per depot, then order best-first. The sort is stable
		// over the shuffle so unbiased depots still spread load.
		scores := make(map[string]float64, len(replicas))
		for _, r := range replicas {
			if _, ok := scores[r.Depot]; !ok {
				scores[r.Depot] = opts.Prefer(r.Depot)
			}
		}
		sort.SliceStable(replicas, func(i, j int) bool {
			return scores[replicas[i].Depot] < scores[replicas[j].Depot]
		})
	}

	if opts.RaceReplicas && len(replicas) > 1 {
		st, err := raceReplicas(ctx, ext, dst, replicas, opts)
		stats.add(st)
		return stats, err
	}

	opts.Budget.RecordAttempt()
	var lastErr error
	for attempt := 0; attempt < opts.Retries; attempt++ {
		if attempt > 0 {
			// A cancelled download must stop here, before the backoff
			// sleep and the next replica pass, so abandoned clients stop
			// burning depot capacity the moment they leave.
			if err := ctx.Err(); err != nil {
				return stats, err
			}
			// The retry budget is the cluster-wide storm clamp: when most
			// fetches are failing, the shared bucket drains and extents
			// fail fast instead of multiplying load on slow depots.
			if !opts.Budget.AllowRetry() {
				stats.BudgetExhausted++
				return stats, fmt.Errorf("lors: extent at %d: retry budget exhausted after %d passes: %w",
					ext.Offset, attempt, lastErr)
			}
			registryOr(opts.Obs).Counter(obs.MLorsRetryPasses).Inc()
			if err := opts.backoff(ctx, attempt); err != nil {
				return stats, err
			}
		}
		candidates := allowedReplicas(opts.Health, replicas,
			func(r exnode.Replica) string { return r.Depot })
		stats.Skipped += len(replicas) - len(candidates)
		if len(candidates) == 0 {
			lastErr = errAllCircuitsOpen
			continue
		}
		for _, rep := range candidates {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
			stats.ReplicaTries++
			actx, aspan := opts.span(ctx, obs.SpanLorsAttempt)
			aspan.SetAttr("depot", rep.Depot)
			// The payload lands straight in dst; a failed verify leaves
			// garbage there, overwritten by the next attempt and never
			// reported upward as success.
			err := opts.loadInto(actx, rep, dst)
			if err == nil {
				if verr := ext.VerifyData(dst); verr != nil {
					stats.ChecksumErrors++
					err = verr
				}
			}
			if err != nil {
				aspan.SetAttr("err", err.Error())
				aspan.Finish()
				if ctxErr := ctx.Err(); ctxErr != nil {
					return stats, ctxErr
				}
				if errors.Is(err, ibp.ErrBusy) {
					// BUSY is a healthy depot shedding load, not a depot
					// failure: fail over to the next replica without
					// tripping its circuit, so capacity rejoins the pool
					// the moment the burst passes.
					stats.BusyRejections++
					lastErr = err
					continue
				}
				stats.FailedAttempts++
				opts.Health.ReportFailure(rep.Depot)
				obs.DefaultLogger().WarnContext(actx, obs.EvLorsFailover,
					"extent", ext.Offset, "replica", rep.Depot, "err", err)
				lastErr = err
				continue
			}
			aspan.Finish()
			opts.Health.ReportSuccess(rep.Depot)
			stats.served(rep.Depot)
			return stats, nil
		}
	}
	return stats, fmt.Errorf("lors: extent at %d: all %d replicas failed: %w",
		ext.Offset, len(replicas), lastErr)
}

// raceReplicas launches all replicas concurrently and copies the first
// verified success into dst. Losers are genuinely cancelled: the shared
// context is cancelled on the first verified success, which yanks their
// in-flight transfers. Each racer loads into its own pooled scratch
// buffer — racers cannot share dst — so the race costs one tracked copy
// (the winner's) instead of one allocation per contender.
func raceReplicas(ctx context.Context, ext exnode.Extent, dst []byte, replicas []exnode.Replica, opts DownloadOptions) (DownloadStats, error) {
	var stats DownloadStats
	candidates := allowedReplicas(opts.Health, replicas,
		func(r exnode.Replica) string { return r.Depot })
	stats.Skipped += len(replicas) - len(candidates)
	if len(candidates) == 0 {
		return stats, fmt.Errorf("lors: extent at %d: %w", ext.Offset, errAllCircuitsOpen)
	}
	type result struct {
		depot string
		data  []byte
		err   error
	}
	// Buffered to len(candidates) so every racer's unconditional send
	// completes; whatever the receive loop doesn't consume is drained (and
	// its buffer pooled) by drainRest.
	ch := make(chan result, len(candidates))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	drainRest := func(n int) {
		if n <= 0 {
			return
		}
		go func() {
			for i := 0; i < n; i++ {
				r := <-ch
				bufpool.Put(r.data)
			}
		}()
	}
	for _, rep := range candidates {
		stats.ReplicaTries++
		go func(rep exnode.Replica) {
			actx, aspan := opts.span(cctx, obs.SpanLorsAttempt)
			aspan.SetAttr("depot", rep.Depot)
			aspan.SetAttr("race", "1")
			data := bufpool.Get(int(ext.Length))
			err := opts.loadInto(actx, rep, data)
			if err == nil {
				if verr := ext.VerifyData(data); verr != nil {
					err = verr
				}
			}
			if err != nil {
				aspan.SetAttr("err", err.Error())
				if !errors.Is(err, ibp.ErrBusy) {
					// BUSY loses the race without tripping the circuit.
					opts.Health.ReportFailure(rep.Depot)
				}
			} else {
				opts.Health.ReportSuccess(rep.Depot)
			}
			aspan.Finish()
			ch <- result{rep.Depot, data, err}
		}(rep)
	}
	var lastErr error
	for i := 0; i < len(candidates); i++ {
		select {
		case <-ctx.Done():
			drainRest(len(candidates) - i)
			return stats, ctx.Err()
		case r := <-ch:
			if r.err == nil {
				stats.served(r.depot)
				bufpool.CopyTracked(dst, r.data)
				bufpool.Put(r.data)
				drainRest(len(candidates) - i - 1)
				return stats, nil
			}
			bufpool.Put(r.data)
			if errors.Is(r.err, ibp.ErrBusy) {
				stats.BusyRejections++
			} else {
				stats.FailedAttempts++
				if errors.Is(r.err, exnode.ErrChecksum) {
					stats.ChecksumErrors++
				}
			}
			lastErr = r.err
		}
	}
	return stats, fmt.Errorf("lors: extent at %d: race lost on all %d replicas: %w",
		ext.Offset, len(candidates), lastErr)
}

// Free releases every replica allocation with a manage capability, over
// connections kept for this one call.
func Free(ctx context.Context, ex *exnode.ExNode, dialer ibp.Dialer) error {
	pipes, done := scoped(nil, dialer, nil)
	defer done()
	return free(ctx, ex, pipes)
}

func free(ctx context.Context, ex *exnode.ExNode, pipes *ibp.PipePool) error {
	var lastErr error
	for _, ext := range ex.Extents {
		for _, rep := range ext.Replicas {
			if rep.ManageCap == "" {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := pipes.Client(rep.Depot).Free(ctx, rep.ManageCap); err != nil {
				lastErr = err
			}
		}
	}
	return lastErr
}

// CopyOptions configures CopyTo/CopyToStriped staging transfers.
type CopyOptions struct {
	// Lease is the allocation lease on the staging targets (required).
	Lease time.Duration
	// Policy is the target allocation policy; empty means Volatile, since
	// staged copies are cache and should yield to hard allocations.
	Policy ibp.Policy
	// Dialer shapes depot connections when Pipes is nil; nil means plain
	// TCP.
	Dialer ibp.Dialer
	// Pipes carries the staging ALLOCATE, COPY and FREE requests over the
	// caller's kept depot connections; nil keeps connections for this one
	// call and closes them on return.
	Pipes *ibp.PipePool
	// Health steers source-replica choice away from circuit-open depots
	// and records staging outcomes, like DownloadOptions.Health.
	Health *HealthTracker
	// Obs receives staging timings and counters (lors.stage.*); nil
	// records into obs.Default().
	Obs *obs.Registry
}

// CopyTo replicates the whole object onto the target depot with third-party
// copies executed by the source depots, returning a new exNode whose
// extents point at the target. This is the primitive behind prestaging view
// sets to a LAN depot (paper Figure 5): no payload bytes traverse the
// caller.
func CopyTo(ctx context.Context, ex *exnode.ExNode, targetAddr string, opts CopyOptions) (*exnode.ExNode, error) {
	return CopyToStriped(ctx, ex, []string{targetAddr}, opts)
}

// CopyToStriped stages the object across several target depots, assigning
// extents round-robin — the paper's configuration stripes staged view sets
// "across four depots attached to the client agent by a 1Gb/s LAN". Extent
// checksums carry over to the staged exNode, so reads from the staging
// depot are verified exactly like reads from the origin. A call that fails
// frees every staging allocation it made.
func CopyToStriped(ctx context.Context, ex *exnode.ExNode, targets []string, opts CopyOptions) (*exnode.ExNode, error) {
	if len(targets) == 0 {
		return nil, errors.New("lors: no staging targets")
	}
	if err := ex.Validate(); err != nil {
		return nil, err
	}
	if opts.Policy == "" {
		opts.Policy = ibp.Volatile // staged copies are cache, soft by default
	}
	pipes, done := scoped(opts.Pipes, opts.Dialer, opts.Obs)
	defer done()
	out := &exnode.ExNode{Name: ex.Name, Length: ex.Length, Checksum: ex.Checksum}
	staged := false
	defer func() {
		if !staged { // the stage's own error is the one to report
			_ = free(context.WithoutCancel(ctx), out, pipes)
		}
	}()
	for k, ext := range ex.SortedExtents() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		targetAddr := targets[k%len(targets)]
		caps, err := pipes.Client(targetAddr).Allocate(ctx, ext.Length, opts.Lease, opts.Policy)
		if err != nil {
			opts.Health.ReportFailure(targetAddr)
			return nil, fmt.Errorf("lors: staging allocation on %s: %w", targetAddr, err)
		}
		opts.Health.ReportSuccess(targetAddr)
		out.Extents = append(out.Extents, exnode.Extent{
			Offset:   ext.Offset,
			Length:   ext.Length,
			Checksum: ext.Checksum,
			Replicas: []exnode.Replica{{
				Depot:     targetAddr,
				ReadCap:   caps.Read,
				ManageCap: caps.Manage,
			}},
		})
		copied := false
		var lastErr error
		// Sort replica attempts deterministically for reproducible tests.
		reps := append([]exnode.Replica{}, ext.Replicas...)
		sort.Slice(reps, func(i, j int) bool { return reps[i].Depot < reps[j].Depot })
		reps = allowedReplicas(opts.Health, reps,
			func(r exnode.Replica) string { return r.Depot })
		if len(reps) == 0 {
			lastErr = errAllCircuitsOpen
		}
		for _, rep := range reps {
			if err := pipes.Client(rep.Depot).Copy(ctx, rep.ReadCap, rep.AllocOffset, ext.Length, targetAddr, caps.Write, 0); err != nil {
				opts.Health.ReportFailure(rep.Depot)
				lastErr = err
				continue
			}
			opts.Health.ReportSuccess(rep.Depot)
			copied = true
			break
		}
		if !copied {
			return nil, fmt.Errorf("lors: staging extent at %d failed: %w", ext.Offset, lastErr)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("lors: staged exnode invalid: %w", err)
	}
	staged = true
	return out, nil
}
