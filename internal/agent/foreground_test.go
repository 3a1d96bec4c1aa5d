package agent

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lonviz/internal/codec"
	"lonviz/internal/dvs"
	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
	"lonviz/internal/netsim"
)

// eventLog is an ordered record shared by a test's fakes.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.events
	l.events = nil
	return out
}

// recordingSource is a ViewSetSource that serves one frame and logs when
// each fetch starts and ends and when it hears of a move.
type recordingSource struct {
	log   *eventLog
	frame []byte
	err   error
}

func (s *recordingSource) GetViewSet(ctx context.Context, id lightfield.ViewSetID) ([]byte, AccessReport, error) {
	s.log.add("get:start")
	defer s.log.add("get:end")
	return s.frame, AccessReport{ID: id, Class: AccessWAN, Bytes: len(s.frame)}, s.err
}

func (s *recordingSource) OnUserMove(geom.Spherical) { s.log.add("move") }

// recordingStreamer adds the streaming path. As with a real download, the
// stream's report becomes final on the transfer's own schedule, a little
// after the reader has everything; streamErr fails the transfer after the
// first half of the frame instead.
type recordingStreamer struct {
	recordingSource
	streamErr error
}

func (s *recordingStreamer) GetViewSetStream(ctx context.Context, id lightfield.ViewSetID) (*ViewSetStream, error) {
	s.log.add("stream:start")
	st := &ViewSetStream{
		Reader: bytes.NewReader(s.frame),
		done:   make(chan struct{}),
		rep:    AccessReport{ID: id, Class: AccessWAN, Bytes: len(s.frame)},
		err:    s.streamErr,
	}
	if s.streamErr != nil {
		st.Reader = io.MultiReader(bytes.NewReader(s.frame[:len(s.frame)/2]), errReader{s.streamErr})
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.log.add("stream:end")
		close(st.done)
	}()
	return st, nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func encodedViewSet(t *testing.T, p lightfield.Params, id lightfield.ViewSetID) []byte {
	t.Helper()
	gen, err := lightfield.NewProceduralGenerator(p, 77)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := gen.GenerateViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := lightfield.EncodeViewSet(vs, p, codec.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestViewerTellsSourceAfterForeground pins the foreground-first order:
// the source hears of a move once the move's own view set is in hand —
// after the fetch on a miss or a failure, at once on a decoded hit — and
// exactly once on every path.
func TestViewerTellsSourceAfterForeground(t *testing.T) {
	p := tinyParams()
	id := lightfield.ViewSetID{R: 1, C: 2}
	sp := p.SetCenterAngles(id)
	frame := encodedViewSet(t, p, id)
	fetchErr := errors.New("depot unreachable")

	cases := []struct {
		name    string
		source  func(*eventLog) ViewSetSource
		want    []string
		wantErr bool
	}{
		{"buffered miss", func(l *eventLog) ViewSetSource {
			return &recordingSource{log: l, frame: frame}
		}, []string{"get:start", "get:end", "move"}, false},
		{"buffered fetch error", func(l *eventLog) ViewSetSource {
			return &recordingSource{log: l, err: fetchErr}
		}, []string{"get:start", "get:end", "move"}, true},
		{"streamed miss", func(l *eventLog) ViewSetSource {
			return &recordingStreamer{recordingSource: recordingSource{log: l, frame: frame}}
		}, []string{"stream:start", "stream:end", "move"}, false},
		{"failed stream fails the move", func(l *eventLog) ViewSetSource {
			return &recordingStreamer{recordingSource: recordingSource{log: l, frame: frame}, streamErr: fetchErr}
		}, []string{"stream:start", "stream:end", "move"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &eventLog{}
			v, err := NewViewer(p, tc.source(log))
			if err != nil {
				t.Fatal(err)
			}
			_, err = v.MoveTo(context.Background(), sp)
			if (err != nil) != tc.wantErr {
				t.Fatalf("MoveTo error = %v, want error %v", err, tc.wantErr)
			}
			if got := log.take(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("events on a miss = %v, want %v", got, tc.want)
			}
			if tc.wantErr {
				return
			}
			// The view set is decoded now: the next move inside it fetches
			// nothing and reports the cursor straight away.
			if rec, err := v.MoveTo(context.Background(), sp); err != nil || rec.Class != AccessHit {
				t.Fatalf("second move: %+v, %v", rec, err)
			}
			if got := log.take(); !reflect.DeepEqual(got, []string{"move"}) {
				t.Errorf("events on a decoded hit = %v, want [move]", got)
			}
		})
	}
}

// wireLogDialer dials through a shaped netsim.Dialer and logs the request
// lines the agent writes: DVS lookups as "GET <view set>", depot reads as
// "LOAD".
type wireLogDialer struct {
	inner *netsim.Dialer
	log   *eventLog
}

func (d *wireLogDialer) Dial(addr string) (net.Conn, error) {
	c, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &wireLogConn{Conn: c, log: d.log}, nil
}

type wireLogConn struct {
	net.Conn
	log *eventLog
}

func (c *wireLogConn) Write(b []byte) (int, error) {
	// Both clients write a request line in one call, so its verb is among
	// the first fields of the chunk ("GET d rXXcYY", "T7 LOAD cap off len").
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, w := range f {
		if w == "LOAD" {
			c.log.add("LOAD")
		} else if w == "GET" && i+2 < len(f) {
			c.log.add("GET " + f[i+2])
		}
	}
	return c.Conn.Write(b)
}

// arrivalSource marks in the log the moment a move's own view set has
// fully arrived, which is when the viewer may go on to OnUserMove.
type arrivalSource struct {
	*ClientAgent
	log *eventLog
}

func (s arrivalSource) GetViewSetStream(ctx context.Context, id lightfield.ViewSetID) (*ViewSetStream, error) {
	inner, err := s.ClientAgent.GetViewSetStream(ctx, id)
	if err != nil {
		return nil, err
	}
	out := &ViewSetStream{Reader: inner.Reader, done: make(chan struct{})}
	go func() {
		out.rep, out.err = inner.Report()
		s.log.add("arrived")
		close(out.done)
	}()
	return out, nil
}

// TestPrefetchWaitsForForegroundFrame drives one move through a real agent
// on a far-shaped link and reads the order of requests off the wire: until
// the move's own frame has fully arrived, the only traffic is that view
// set's DVS lookup and its LOADs; the prefetches the move sets off follow.
func TestPrefetchWaitsForForegroundFrame(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	far := netsim.LinkProfile{Name: "far", Latency: 5 * time.Millisecond, Bandwidth: 256 << 10}
	dialer := &wireLogDialer{inner: netsim.NewDialer(far), log: log}
	ca, err := NewClientAgent(ClientAgentConfig{
		Dataset:  "neghip",
		Params:   r.params,
		DVS:      &dvs.Client{Addr: r.dvsClient.Addr, Dialer: dialer},
		Dialer:   dialer,
		Prefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)
	v, err := NewViewer(r.params, arrivalSource{ca, log})
	if err != nil {
		t.Fatal(err)
	}

	id := lightfield.ViewSetID{R: 0, C: 1}
	sp := r.params.SetCenterAngles(id)
	sp.Theta += 0.05
	sp.Phi += 0.05
	targets := r.params.QuadrantPrefetch(sp)
	if len(targets) == 0 {
		t.Fatal("the move predicts no prefetch targets")
	}
	if rec, err := v.MoveTo(context.Background(), sp); err != nil || rec.Class != AccessWAN {
		t.Fatalf("move: %+v, %v", rec, err)
	}
	// The prefetches run in the think time; wait for them to land.
	deadline := time.Now().Add(10 * time.Second)
	for _, target := range targets {
		for !ca.cache.Contains(target.String()) {
			if time.Now().After(deadline) {
				t.Fatalf("prefetch of %v never landed", target)
			}
			time.Sleep(time.Millisecond)
		}
	}

	events := log.take()
	arrived := -1
	for i, e := range events {
		if e == "arrived" {
			arrived = i
			break
		}
	}
	if arrived < 0 {
		t.Fatalf("no arrival among %v", events)
	}
	loads := 0
	for _, e := range events[:arrived] {
		switch e {
		case "LOAD":
			loads++
		case "GET " + id.String():
		default:
			t.Errorf("%q went out before the foreground frame had arrived: %v", e, events)
		}
	}
	if loads == 0 {
		t.Errorf("no foreground LOAD before the arrival: %v", events)
	}
	after := strings.Join(events[arrived:], ",")
	for _, target := range targets {
		if !strings.Contains(after, "GET "+target.String()) {
			t.Errorf("no DVS lookup for prefetch target %v after the arrival: %v", target, events)
		}
	}
}
