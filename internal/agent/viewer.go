package agent

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
	"lonviz/internal/render"
)

// ViewSetSource is what a Viewer needs from its client agent: the
// in-process *ClientAgent implements it, and so does the remote TCP proxy.
type ViewSetSource interface {
	GetViewSet(ctx context.Context, id lightfield.ViewSetID) ([]byte, AccessReport, error)
	OnUserMove(sp geom.Spherical)
}

// AccessRecord is the client-side view of one view set access — the
// quantity plotted in Figures 8-12: Comm is the communication latency
// (Figure 12), Decompress the zlib inflation time (Figure 8), and Total
// the latency observed at the client (Figures 9-11).
type AccessRecord struct {
	ID         lightfield.ViewSetID
	Class      AccessClass
	Comm       time.Duration
	Decompress time.Duration
	Total      time.Duration
	Bytes      int
}

// Viewer is the client process (paper section 3.5): it takes user input,
// asks the client agent for the view set covering the current view angle,
// decompresses it, and renders novel views by pure table lookup. It keeps
// a small decoded-view-set cache — the paper notes low-resolution devices
// need none, while workstations want "some level of local caching".
type Viewer struct {
	P      lightfield.Params
	Source ViewSetSource
	// MaxDecoded bounds the decoded view set cache (default 4; 1 models a
	// PDA holding only the current view set).
	MaxDecoded int

	mu      sync.Mutex
	decoded map[lightfield.ViewSetID]*lightfield.ViewSet
	order   []lightfield.ViewSetID // FIFO for eviction
	records []AccessRecord

	// spare is the decoded set evicted last; the next decode writes into
	// its images instead of allocating 36 new ones per move. The rule: a
	// set becomes the spare only if no Render was in flight (rendering ==
	// 0) when it left decoded. A Render gets its sets from decoded while
	// it is counted in rendering, both under mu, so one that could still
	// read the set was counted, and one that starts later cannot find it.
	spare     *lightfield.ViewSet
	rendering int

	// lastDist and lastRes are the camera distance and display resolution
	// of the last Render: a move that has to wait for its view set lays
	// out the frame it will want at them (see prepare).
	lastDist float64
	lastRes  int

	// One renderer for the viewer's life: on first use it caches a camera
	// per lattice position, too much to rebuild on every cursor move, and
	// it holds the viewer's one frame layout.
	rend *lightfield.Renderer
}

// NewViewer validates params and builds a viewer.
func NewViewer(p lightfield.Params, src ViewSetSource) (*Viewer, error) {
	if src == nil {
		return nil, fmt.Errorf("agent: viewer needs a view set source")
	}
	v := &Viewer{P: p, Source: src, MaxDecoded: 4, decoded: make(map[lightfield.ViewSetID]*lightfield.ViewSet)}
	var err error
	if v.rend, err = lightfield.NewRenderer(p, v); err != nil { // validates p
		return nil, err
	}
	return v, nil
}

// MoveTo processes one cursor movement: if the new view angle leaves the
// current view set, it requests and decompresses the needed one, and it
// informs the agent of the move (driving prefetch and staging order). The
// returned record reflects what the user experienced; moves within the
// already decoded view set return a zero-latency record with Class
// AccessHit.
//
// Foreground first: the agent hears of the move once the move's own view
// set is in hand — at once on a decoded hit; before the decode when the
// stream hands over bytes that had all landed (an agent-cache hit), since
// the decode needs no link; else when it is decoded, which a streamed one
// is as its last bytes arrive, or the fetch has failed — so the prefetches
// it sets off fill the think time instead of sharing the link with the
// transfer the user is waiting for.
//
// A move that has to wait for its view set spends the wait laying out the
// frame the next Render will draw (see prepare).
func (v *Viewer) MoveTo(ctx context.Context, sp geom.Spherical) (AccessRecord, error) {
	i, j := v.P.NearestCamera(sp)
	id := v.P.ViewSetOf(i, j)

	v.mu.Lock()
	_, have := v.decoded[id]
	spare := v.spare
	if !have {
		v.spare = nil // this move's decode has it
	}
	v.mu.Unlock()
	rec := AccessRecord{ID: id, Class: AccessHit}
	var vs *lightfield.ViewSet
	var err error
	told := false
	tell := func() {
		if !told {
			told = true
			v.Source.OnUserMove(sp)
		}
	}
	if !have {
		vs, rec, err = v.fetchDecode(ctx, id, sp, spare, tell)
	}
	tell()
	if err != nil {
		return AccessRecord{}, err
	}
	v.mu.Lock()
	if vs != nil {
		v.insertDecoded(id, vs)
	}
	v.records = append(v.records, rec)
	v.mu.Unlock()
	return rec, nil
}

// fetchDecode is a move's one fetch-and-decode step. A source that can
// deliver bytes as extents verify is inflated while the download is still in
// flight; one that cannot (the remote proxy) hands over the whole frame
// first. Whatever can be retried — another copy, another replica — the
// source's flight has already tried, so a failure here fails the move. The
// pixels go into spare's images, if there is one. A stream whose bytes
// have all landed calls tell before the decode; one whose bytes have not
// sets off the layout of the frame at sp.
func (v *Viewer) fetchDecode(ctx context.Context, id lightfield.ViewSetID, sp geom.Spherical, spare *lightfield.ViewSet, tell func()) (*lightfield.ViewSet, AccessRecord, error) {
	start := time.Now()
	var (
		vs   *lightfield.ViewSet
		rep  AccessReport
		derr error
	)
	if src, ok := v.Source.(ViewSetStreamer); ok {
		stream, err := src.GetViewSetStream(ctx, id)
		if err != nil {
			return nil, AccessRecord{}, err
		}
		if stream.landed() {
			tell()
		} else {
			v.prepare(sp)
		}
		vs, derr = lightfield.DecodeViewSetInto(stream.Reader, v.P, spare)
		// The transfer's own error says more than the decoder's view of it.
		if rep, err = stream.Report(); err != nil {
			return nil, AccessRecord{}, err
		}
	} else {
		frame, r, err := v.Source.GetViewSet(ctx, id)
		if err != nil {
			return nil, AccessRecord{}, err
		}
		rep = r
		vs, derr = lightfield.DecodeViewSetInto(bytes.NewReader(frame), v.P, spare)
	}
	if derr != nil {
		return nil, AccessRecord{}, fmt.Errorf("agent: decoding view set %v: %w", id, derr)
	}
	// Decompress is what the user waited beyond the transfer: the whole
	// decode behind a buffered source, only the residual tail after the
	// last byte arrived when inflation ran while the bytes were coming in.
	total := time.Since(start)
	return vs, AccessRecord{
		ID:         id,
		Class:      rep.Class,
		Comm:       rep.Comm,
		Decompress: max(total-rep.Comm, 0),
		Total:      total,
		Bytes:      rep.Bytes,
	}, nil
}

// insertDecoded adds to the decoded cache with FIFO eviction; caller holds
// the lock.
func (v *Viewer) insertDecoded(id lightfield.ViewSetID, vs *lightfield.ViewSet) {
	maxN := v.MaxDecoded
	if maxN <= 0 {
		maxN = 1
	}
	if _, ok := v.decoded[id]; !ok {
		v.order = append(v.order, id)
	}
	v.decoded[id] = vs
	for len(v.order) > maxN {
		old := v.order[0]
		v.order = v.order[1:]
		if old != id {
			if v.rendering == 0 {
				v.spare = v.decoded[old]
			}
			delete(v.decoded, old)
		}
	}
}

// ViewSet implements lightfield.Provider over the decoded cache, so the
// viewer itself is the renderer's data source. Once a MoveTo has evicted
// the set, a later one may decode over its pixels (see spare): only Render
// may keep it across a move.
func (v *Viewer) ViewSet(id lightfield.ViewSetID) (*lightfield.ViewSet, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	vs, ok := v.decoded[id]
	return vs, ok
}

// prepare starts laying out, on a goroutine of its own, the frame a Render
// from sp will draw, at the distance and resolution of the last Render —
// which lfbrowse and the benchmark pass every time. Render uses the layout
// only if sp, dist and res all match (the renderer compares cameras), and
// if it is unfinished lays out the rest itself. Only a move that waits on
// the network calls it: beside a decode of bytes already here, the layout
// would slow the decode down by more than it saves.
func (v *Viewer) prepare(sp geom.Spherical) {
	v.mu.Lock()
	dist, res := v.lastDist, v.lastRes
	v.mu.Unlock()
	if res == 0 {
		return // no Render yet
	}
	if cam, err := v.P.ViewerCamera(sp, dist, res); err == nil {
		v.rend.Prepare(cam)
	}
}

// Render reconstructs the novel view from direction sp at the given
// display resolution using whatever view sets are decoded locally.
func (v *Viewer) Render(sp geom.Spherical, dist float64, res int) (*render.Image, lightfield.RenderStats, error) {
	cam, err := v.P.ViewerCamera(sp, dist, res)
	if err != nil {
		return nil, lightfield.RenderStats{}, err
	}
	v.mu.Lock()
	v.rendering++
	v.lastDist, v.lastRes = dist, res
	v.mu.Unlock()
	defer v.countRender(-1)
	return v.rend.RenderView(cam)
}

func (v *Viewer) countRender(d int) {
	v.mu.Lock()
	v.rendering += d
	v.mu.Unlock()
}

// Records returns a copy of all access records so far, in order.
func (v *Viewer) Records() []AccessRecord {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]AccessRecord, len(v.records))
	copy(out, v.records)
	return out
}
