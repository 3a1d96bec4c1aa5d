package agent

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"

	"lonviz/internal/codec"
	"lonviz/internal/edge"
	"lonviz/internal/exnode"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
	"lonviz/internal/singleflight"
)

// A view set that is not cached is fetched by a flight: one per view set,
// however many callers want it and however they asked. GetViewSet joins the
// flight and waits for it to finish; GetViewSetStream joins it and reads
// its buffer as the prefix verifies; a prefetch is a GetViewSet nobody
// waits for; the remote service calls GetViewSet. They are views of one
// object, so any mix of them shares one transfer, and a user's move onto a
// view set whose prefetch is in flight inflates the bytes already here.

// ViewSetStream is one view set fetch exposed as a stream: Reader yields
// the compressed frame in order as each extent's checksum is verified,
// while later extents are still in flight. The viewer feeds it straight
// into codec inflation, overlapping decompression with communication
// instead of serializing them behind the last stripe.
type ViewSetStream struct {
	// Reader yields the compressed frame bytes in order; reads block
	// until verified bytes are available and return io.EOF at the end.
	Reader io.Reader

	done chan struct{}
	rep  AccessReport
	err  error
}

// Report blocks until the underlying transfer finishes (or the context the
// stream was asked for under ends) and returns its access report. After a
// successful decode from Reader it returns immediately — inflation cannot
// outrun the last verified byte.
func (s *ViewSetStream) Report() (AccessReport, error) {
	<-s.done
	return s.rep, s.err
}

// landed reports whether the transfer was over when the stream was handed
// out (a cache hit): a reader then waits on nothing but the decode.
func (s *ViewSetStream) landed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// ViewSetStreamer is implemented by sources that can hand out view set
// bytes before the whole transfer completes. The Viewer type-asserts its
// source against this to enable the decompress-while-downloading path.
type ViewSetStreamer interface {
	GetViewSetStream(ctx context.Context, id lightfield.ViewSetID) (*ViewSetStream, error)
}

// GetViewSet returns the compressed frame of a view set, serving from the
// cache, the LAN depot (if prestaged), or the WAN, in that order.
func (ca *ClientAgent) GetViewSet(ctx context.Context, id lightfield.ViewSetID) ([]byte, AccessReport, error) {
	a, err := ca.open(ctx, id, false)
	if err != nil {
		return nil, AccessReport{}, err
	}
	return a.finish()
}

// GetViewSetStream is GetViewSet with incremental delivery: it returns at
// once, and the stream's Reader serves the compressed frame as the flight's
// extents verify — from the flight's own destination buffer, so the frame
// crosses process memory once: socket → frame buffer → inflater. A cache
// hit is a complete stream immediately.
func (ca *ClientAgent) GetViewSetStream(ctx context.Context, id lightfield.ViewSetID) (*ViewSetStream, error) {
	a, err := ca.open(ctx, id, false)
	if err != nil {
		return nil, err
	}
	s := &ViewSetStream{done: make(chan struct{})}
	if a.hit {
		s.Reader = bytes.NewReader(a.frame)
		_, s.rep, s.err = a.finish()
		close(s.done)
		return s, nil
	}
	s.Reader = &flightReader{f: a.call.Value(), done: a.call.Done()}
	go func() {
		defer close(s.done)
		_, s.rep, s.err = a.finish()
	}()
	return s, nil
}

// access is one caller's request for a view set, from the cache lookup to
// the report. open and finish are the only way in and out, so every entry
// point leaves the same span, counters, histogram sample and event.
type access struct {
	ca          *ClientAgent
	ctx         context.Context // the caller's, carrying the agent.getviewset span
	span        *obs.Span
	id          lightfield.ViewSetID
	key         string // id.String(): the cache key and the id in spans and events
	viaPrefetch bool   // the prefetcher's own request: its loads are credited when a user request later hits them
	start       time.Time

	hit   bool
	frame []byte                                          // on a hit
	call  singleflight.Call[lightfield.ViewSetID, *fetch] // on a miss: membership of the flight
}

// open looks in the cache and, on a miss, joins the view set's flight —
// starting it if this caller is the first. It does not block.
func (ca *ClientAgent) open(ctx context.Context, id lightfield.ViewSetID, viaPrefetch bool) (*access, error) {
	if !ca.cfg.Params.ValidID(id) {
		return nil, fmt.Errorf("agent: view set %v outside database", id)
	}
	a := &access{ca: ca, id: id, key: id.String(), viaPrefetch: viaPrefetch, start: time.Now()}
	a.ctx, a.span = ca.tracer().StartSpan(ctx, obs.SpanGetViewSet)
	a.span.SetAttr("id", a.key)
	if a.frame, a.hit = ca.cache.Get(a.key); !a.hit {
		// The flight inherits this caller's trace, so its resolve, stage
		// and download spans hang under the first caller's root.
		a.call = ca.flights.Join(a.ctx, id,
			&fetch{id: id, key: a.key, viaPrefetch: viaPrefetch, ready: make(chan struct{})}, ca.fly)
	}
	return a, nil
}

// finish waits for the access's flight, if it has one, and closes the
// access. A caller whose own ctx ends first gets its ctx.Err() and leaves
// the flight to the others; the last to leave cancels it.
func (a *access) finish() (frame []byte, rep AccessReport, err error) {
	ca, reg := a.ca, a.ca.registry()
	rep = AccessReport{ID: a.id}
	defer func() {
		if err == nil {
			a.span.SetAttr("class", rep.Class.String())
			reg.Histogram(obs.Label(obs.MAgentFetchMs, "class", rep.Class.String()), obs.LatencyBucketsMs...).
				Observe(float64(rep.Comm) / 1e6)
			if log := obs.DefaultLogger(); log.Enabled(a.ctx, slog.LevelDebug) {
				log.DebugContext(a.ctx, obs.EvAgentFetch,
					"viewset", a.key, "class", rep.Class.String(), "ms", rep.Comm.Milliseconds())
			}
		} else {
			a.span.SetAttr("error", err.Error())
		}
		a.span.Finish()
	}()
	if a.hit {
		frame = a.frame
		ca.recordHit(a.key, a.viaPrefetch)
	} else {
		if err = a.call.Wait(a.ctx); err != nil {
			return nil, rep, err
		}
		f := a.call.Value()
		frame, rep.Class = f.frame, f.class
		if a.call.Shared {
			// Piggybacked on another caller's transfer: this request paid no
			// depot work, so it counts as a hit in the paper's access-class
			// accounting, plus the coalesce count overload dashboards watch.
			ca.mu.Lock()
			ca.stats.Coalesced++
			ca.mu.Unlock()
			ca.recordHit(a.key, a.viaPrefetch)
			rep.Class = AccessHit
		}
	}
	rep.Comm = time.Since(a.start)
	rep.Bytes = len(frame)
	return frame, rep, nil
}

// fetch is the state the callers of one flight share: the buffer of the
// transfer in progress, for those who read as it arrives, and the outcome,
// for everyone once the flight has ended.
type fetch struct {
	id  lightfield.ViewSetID
	key string // id.String()
	// viaPrefetch: the prefetcher started the flight, so the frame it
	// caches carries the prefetched mark.
	viaPrefetch bool

	// buf is the destination of the download attempt in progress (or of
	// the last one), readable as its prefix verifies; ready is closed when
	// the first one is published. A flight that ends without a download —
	// the frame was cached after all, or no exNode resolved — never
	// closes it.
	ready chan struct{}
	buf   atomic.Pointer[codec.StreamBuffer]

	// The outcome, written by the flight before it ends.
	frame []byte
	class AccessClass
	err   error
}

// fly is the miss path, all of it: resolve (staged copy, else the DVS's
// exNodes, through a staging copy or the edge tier where configured),
// download, classify, cache, count. It runs once per view set under the
// first caller's trace but nobody's cancellation: FetchTimeout bounds it,
// and the flight's context ends early only when every caller has left.
func (ca *ClientAgent) fly(ctx context.Context, f *fetch) (err error) {
	defer func() { f.err = err }()
	ctx, cancel := context.WithTimeout(ctx, ca.cfg.FetchTimeout)
	defer cancel()
	// A fetch that has just finished may have landed the frame between the
	// first caller's cache miss and its starting this flight.
	if frame, ok := ca.cache.Get(f.key); ok {
		ca.recordHit(f.key, f.viaPrefetch)
		f.frame, f.class = frame, AccessHit
		return nil
	}

	ca.mu.Lock()
	ca.stats.Misses++
	staged := ca.staged[f.id]
	ca.mu.Unlock()
	if staged != nil {
		if _, err := ca.download(ctx, f, staged, "lan-depot"); err == nil {
			ca.landed(f, AccessLANDepot)
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err // the flight was stopped; the copy may be fine
		}
		// Staged copy gone (lease expiry/revocation): forget and fall
		// through to the WAN path.
		ca.mu.Lock()
		delete(ca.staged, f.id)
		ca.mu.Unlock()
	}

	ca.mu.Lock()
	ca.wanBusy++
	ca.mu.Unlock()
	defer func() {
		ca.mu.Lock()
		ca.wanBusy--
		ca.mu.Unlock()
	}()
	exs, cached, err := ca.resolveExNodes(ctx, f.id)
	if err != nil {
		return err
	}

	if ca.cfg.RouteMissesThroughDepot && len(ca.cfg.LANDepots) > 0 {
		// Stage first, then read locally: the WAN crossing becomes a
		// third-party copy whose result stays cached on the depot.
		var copied *exnode.ExNode
		var err error
		prof.Do(ctx, func(lctx context.Context) {
			copied, err = ca.stage(lctx, exs[0])
		}, prof.KeyClass, "agent_fetch", prof.KeyVerb, "wan")
		if err == nil {
			if _, err = ca.download(ctx, f, copied, "wan"); err == nil {
				ca.mu.Lock()
				ca.staged[f.id] = copied
				ca.stats.Staged++
				ca.mu.Unlock()
				ca.remember(f.key, exs[0], cached)
				ca.landed(f, AccessWAN) // the copy crossed the WAN on our behalf
				return nil
			}
		}
		// Routing failed; fall back to the direct path below.
	}

	var lastErr error
	for k := 0; k < len(exs); k++ {
		origin, verb := exs[k], "wan"
		ex := origin
		if ca.cfg.EdgeAddr != "" {
			ex = edge.RewriteExNode(ex, ca.cfg.EdgeAddr, f.key)
			verb = "edge"
		}
		st, err := ca.download(ctx, f, ex, verb)
		if err != nil {
			lastErr = err
			if cached && ctx.Err() == nil {
				// The exNode remembered from an earlier fetch serves no
				// longer: forget it and go through what the DVS lists now.
				ca.excach.Remove(f.key)
				if exs, cached, err = ca.resolveExNodes(ctx, f.id); err != nil {
					return err
				}
				k = -1
			}
			continue
		}
		// Classify by who actually served the bytes: only a download whose
		// every extent came off the edge tier avoided the WAN from this
		// agent's seat; any origin-replica failover keeps the wan class.
		class := AccessWAN
		if ea := ca.cfg.EdgeAddr; ea != "" && st.ExtentFetches > 0 &&
			st.ServedBy[ea] == st.ExtentFetches {
			class = AccessEdge
		}
		ca.remember(f.key, origin, cached)
		ca.landed(f, class)
		return nil
	}
	return fmt.Errorf("agent: all exNode replicas failed for %v: %w", f.id, lastErr)
}

// download runs one transfer attempt of a flight under its own span and
// the profile labels of its access class ({class=agent_fetch,
// verb=lan-depot|wan|edge}, the paper's three-tier access taxonomy; the
// closure form is fine here — a download allocates orders of magnitude
// more than the wrapper). The destination is published before the first
// byte arrives, for readers to follow as its prefix verifies, and is fresh
// for every attempt: readers that followed an earlier attempt which failed
// part-way may still be reading that attempt's buffer, and nothing may be
// written under them.
func (ca *ClientAgent) download(ctx context.Context, f *fetch, ex *exnode.ExNode, verb string) (st lors.DownloadStats, err error) {
	buf := make([]byte, ex.Length)
	sb := codec.NewStreamBuffer(buf)
	if f.buf.Swap(sb) == nil {
		close(f.ready)
	}
	dl := ca.downloadOpts()
	dl.OnPrefix = sb.Advance
	prof.Do(ctx, func(lctx context.Context) {
		lctx, span := ca.tracer().StartSpan(lctx, obs.SpanDownload)
		defer span.Finish()
		if st, err = lors.DownloadInto(lctx, ex, buf, dl); err != nil {
			span.SetAttr("error", err.Error())
		}
	}, prof.KeyClass, "agent_fetch", prof.KeyVerb, verb)
	ca.addTransferStats(st)
	if err != nil {
		sb.Fail(err)
		return st, err
	}
	f.frame = buf
	return st, nil
}

// remember puts ex, which the DVS listed for view set key and which has
// just served a download or a staging copy, in the exNode cache (unless
// that is where it came from): the next miss of the view set starts from
// an exNode that worked, not from the first one listed.
func (ca *ClientAgent) remember(key string, ex *exnode.ExNode, cached bool) {
	if !cached {
		_ = ca.excach.Put(key, mustMarshal(ex))
	}
}

// landed caches a flight's downloaded frame and counts the transfer under
// its class.
func (ca *ClientAgent) landed(f *fetch, class AccessClass) {
	f.class = class
	_ = ca.cache.Put(f.key, f.frame)
	ca.mu.Lock()
	switch class {
	case AccessLANDepot:
		ca.stats.LANFetches++
	case AccessEdge:
		ca.stats.EdgeFetches++
	default:
		ca.stats.WANFetches++
	}
	if f.viaPrefetch {
		ca.prefetched[f.key] = true
	}
	ca.mu.Unlock()
}

// flightReader is one streaming caller's cursor over a flight: it follows
// the download's buffer as the prefix verifies. When there is no buffer to
// follow (the flight found the frame cached) or the attempt it followed
// failed part-way while the flight went on to another copy, it waits for
// the flight to end and takes the rest from the finished frame — every
// copy of a view set holds the same checksummed bytes, and the prefix
// already handed out is compared to be sure.
type flightReader struct {
	f    *fetch
	done <-chan struct{}

	sb    *codec.StreamBuffer // the attempt being followed
	cur   io.Reader
	pos   int
	final bool // cur is the finished frame
}

func (r *flightReader) Read(p []byte) (int, error) {
	if r.cur == nil {
		select {
		case <-r.f.ready:
			r.sb = r.f.buf.Load()
			r.cur = r.sb.Reader()
		case <-r.done:
			if err := r.finish(); err != nil {
				return 0, err
			}
		}
	}
	n, err := r.cur.Read(p)
	r.pos += n
	if n > 0 || err == nil || err == io.EOF || r.final {
		return n, err
	}
	// The attempt failed under this reader; the flight may yet succeed
	// from another copy.
	<-r.done
	if err := r.finish(); err != nil {
		return 0, err
	}
	return r.Read(p)
}

// finish switches the reader, once the flight has ended, to the rest of
// the finished frame.
func (r *flightReader) finish() error {
	f := r.f
	if f.err != nil {
		return f.err
	}
	if r.pos > len(f.frame) || (r.sb != nil && !bytes.Equal(r.sb.Bytes()[:r.pos], f.frame[:r.pos])) {
		return fmt.Errorf("agent: view set %v: the copy that failed after %d bytes differs from the one fetched", f.id, r.pos)
	}
	r.cur, r.final = bytes.NewReader(f.frame[r.pos:]), true
	return nil
}
