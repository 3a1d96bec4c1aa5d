package agent

import (
	"bytes"
	"context"
	"io"
	"sync/atomic"
	"testing"

	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
)

// frameStreamer serves every view set of its database as a stream that is
// still in flight when it is handed out: the transfer ends when the reader
// reaches the frame's end, so a viewer's move always finds its view set
// not landed yet and lays out its frame while it decodes.
type frameStreamer struct {
	frames map[lightfield.ViewSetID][]byte
}

func newFrameStreamer(t *testing.T, p lightfield.Params) *frameStreamer {
	s := &frameStreamer{frames: map[lightfield.ViewSetID][]byte{}}
	for _, id := range p.AllViewSets() {
		s.frames[id] = encodedViewSet(t, p, id)
	}
	return s
}

func (s *frameStreamer) GetViewSet(ctx context.Context, id lightfield.ViewSetID) ([]byte, AccessReport, error) {
	f := s.frames[id]
	return f, AccessReport{ID: id, Class: AccessWAN, Bytes: len(f)}, nil
}

func (s *frameStreamer) OnUserMove(geom.Spherical) {}

func (s *frameStreamer) GetViewSetStream(ctx context.Context, id lightfield.ViewSetID) (*ViewSetStream, error) {
	f := s.frames[id]
	st := &ViewSetStream{done: make(chan struct{}), rep: AccessReport{ID: id, Class: AccessWAN, Bytes: len(f)}}
	st.Reader = &endsTransfer{r: bytes.NewReader(f), done: st.done}
	return st, nil
}

// endsTransfer closes done when its reader reaches the end.
type endsTransfer struct {
	r    io.Reader
	done chan struct{}
}

func (e *endsTransfer) Read(b []byte) (int, error) {
	n, err := e.r.Read(b)
	if err == io.EOF {
		select {
		case <-e.done:
		default:
			close(e.done)
		}
	}
	return n, err
}

// TestRenderInsideOuterSphereFailsAsBefore: the layout a waiting move
// sets off is at the last Render's distance, and changes nothing for a
// Render whose distance is inside the outer sphere — before any Render,
// after a failed one, and beside a prepared layout, it fails with the
// error ViewerCamera gives and no frame.
func TestRenderInsideOuterSphereFailsAsBefore(t *testing.T) {
	p := tinyParams()
	v, err := NewViewer(p, newFrameStreamer(t, p))
	if err != nil {
		t.Fatal(err)
	}
	ids := p.AllViewSets()
	bad, good := p.OuterRadius*0.9, p.OuterRadius*1.6
	const res = 24
	renderFails := func(step string, sp geom.Spherical) {
		t.Helper()
		_, want := p.ViewerCamera(sp, bad, res)
		if want == nil {
			t.Fatal("ViewerCamera accepted a distance inside the outer sphere")
		}
		im, _, err := v.Render(sp, bad, res)
		if err == nil || err.Error() != want.Error() || im != nil {
			t.Fatalf("%s: Render inside the outer sphere returned (%v, %v), want (nil, %v)", step, im, err, want)
		}
	}
	move := func(id lightfield.ViewSetID) geom.Spherical {
		t.Helper()
		sp := p.SetCenterAngles(id)
		if _, err := v.MoveTo(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
		return sp
	}

	renderFails("before any move", p.SetCenterAngles(ids[0]))
	sp := move(ids[0])
	renderFails("after a move with no Render before it", sp)
	if _, _, err := v.Render(sp, good, res); err != nil {
		t.Fatal(err)
	}
	sp = move(ids[1]) // lays out (sp, good, res)
	renderFails("beside a prepared layout", sp)

	// The prepared layout is still good for its own camera.
	cam, err := p.ViewerCamera(sp, good, res)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := lightfield.NewRenderer(p, v)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := inline.RenderView(cam)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := v.Render(sp, good, res)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || gotStats != wantStats {
		t.Fatalf("prepared frame differs from the inline one: stats %+v, want %+v", gotStats, wantStats)
	}
}

// TestRenderWhileMoveToLaysOut moves on one goroutine, each move laying
// out its frame while it decodes, and renders the latest move's view on
// another, so Renders join layouts in flight, discard them, and find the
// layout taken; the race detector judges the hand-offs.
func TestRenderWhileMoveToLaysOut(t *testing.T) {
	p := tinyParams()
	v, err := NewViewer(p, newFrameStreamer(t, p))
	if err != nil {
		t.Fatal(err)
	}
	v.MaxDecoded = 1
	ids := p.AllViewSets()
	dist := p.OuterRadius * 1.6
	const res = 32
	if _, _, err := v.Render(p.SetCenterAngles(ids[0]), dist, res); err != nil {
		t.Fatal(err)
	}
	var at atomic.Int64 // index of the latest move's view set
	stop := make(chan struct{})
	rendered := make(chan int)
	go func() {
		n := 0
		defer func() { rendered <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, st, err := v.Render(p.SetCenterAngles(ids[at.Load()]), dist, res)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Pixels != res*res || st.Background+st.Filled+st.MissingSet != st.Pixels {
				t.Errorf("frame stats %+v do not add up", st)
				return
			}
			n++
		}
	}()
	for k := 0; k < 60; k++ {
		i := k % len(ids)
		at.Store(int64(i))
		if _, err := v.MoveTo(context.Background(), p.SetCenterAngles(ids[i])); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	if n := <-rendered; n == 0 {
		t.Error("no frame was rendered beside the moves")
	}
}
