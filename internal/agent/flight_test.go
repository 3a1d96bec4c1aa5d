package agent

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lonviz/internal/dvs"
	"lonviz/internal/edge"
	"lonviz/internal/exnode"
	"lonviz/internal/lightfield"
	"lonviz/internal/netsim"
	"lonviz/internal/obs"
	"lonviz/internal/obs/prof"
)

// A miss is one flight per view set, whoever asks and however: these tests
// pin that GetViewSet, GetViewSetStream, Viewer.MoveTo, the remote service
// and the prefetcher share it — one transfer, one accounting, one trace.

// gateDialer lets limit bytes arrive from the depots and then holds every
// further one until the test opens it: a transfer stopped mid-frame for as
// long as the test needs, with no sleeps to tune.
type gateDialer struct {
	limit   int64
	passed  atomic.Int64
	blocked atomic.Bool
	once    sync.Once
	gate    chan struct{}
}

func newGateDialer(t *testing.T, limit int64) *gateDialer {
	d := &gateDialer{limit: limit, gate: make(chan struct{})}
	t.Cleanup(d.open)
	return d
}

func (d *gateDialer) open() { d.once.Do(func() { close(d.gate) }) }

// waitBlocked returns once some depot's reply is being held.
func (d *gateDialer) waitBlocked(t *testing.T) {
	t.Helper()
	waitFor(t, "a depot read to reach the gate", d.blocked.Load)
}

// Dial hands out one end of an in-memory pipe relayed to the depot, so the
// held bytes are "in the network": the agent's end still honours deadlines
// and Close, which is how its transport abandons a request.
func (d *gateDialer) Dial(addr string) (net.Conn, error) {
	depot, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	near, far := net.Pipe()
	go func() { // requests pass freely
		_, _ = io.Copy(depot, far)
		depot.Close()
	}()
	go func() { // replies are the held direction
		defer far.Close()
		buf := make([]byte, 4096)
		for {
			n, err := depot.Read(buf)
			if n > 0 {
				if d.passed.Load() >= d.limit {
					d.blocked.Store(true)
					<-d.gate
				}
				d.passed.Add(int64(n))
				if _, err := far.Write(buf[:n]); err != nil {
					depot.Close()
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	return near, nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitLookups waits until the agent's frame cache has been asked n times.
// Every request looks there first and a flight looks once more as it
// starts, so a count says how many requests have reached the agent; the
// pause after it covers the few instructions between a request's lookup
// and its joining the flight.
func waitLookups(t *testing.T, ca *ClientAgent, n int64) {
	t.Helper()
	waitFor(t, "the request to reach the agent", func() bool {
		cs := ca.CacheStats()
		return cs.Hits+cs.Misses >= n
	})
	time.Sleep(20 * time.Millisecond)
}

// publishStriped publishes the rig's database again in stripes of the given
// size, so a frame of a few hundred bytes is several extents and a
// transfer has a middle to be stopped in.
func publishStriped(t *testing.T, r *rig, stripe int64) {
	t.Helper()
	gen, err := lightfield.NewProceduralGenerator(r.params, 77)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewServerAgent(ServerAgentConfig{
		Dataset: "neghip", Gen: gen, Depots: r.depots, DVS: r.dvsClient, StripeSize: stripe,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sa.Close() })
	if _, err := sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// referenceFrame fetches id through a plain agent of its own.
func referenceFrame(t *testing.T, r *rig, id lightfield.ViewSetID) []byte {
	t.Helper()
	frame, _, err := r.newClientAgent(t, nil).GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// agentCounts is what a request may move: the counts of ClientAgentStats,
// the agent's one record of its events.
type agentCounts struct {
	Hits, LAN, WAN, Edge, Misses, Prefetches, PrefetchUseful, Staged, StageErrors, Coalesced int64
}

func countsOf(ca *ClientAgent) agentCounts {
	st := ca.Stats()
	return agentCounts{
		Hits: st.Hits, LAN: st.LANFetches, WAN: st.WANFetches, Edge: st.EdgeFetches, Misses: st.Misses,
		Prefetches: st.Prefetches, PrefetchUseful: st.PrefetchUseful,
		Staged: st.Staged, StageErrors: st.StageErrors, Coalesced: st.Coalesced,
	}
}

func (c agentCounts) sub(o agentCounts) agentCounts {
	cv, ov := reflect.ValueOf(&c).Elem(), reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(cv.Field(i).Int() - ov.Field(i).Int())
	}
	return c
}

// drain reads a stream to its end and returns the bytes with the report.
func drain(t *testing.T, st *ViewSetStream) ([]byte, AccessReport) {
	t.Helper()
	data, err := io.ReadAll(st.Reader)
	if err != nil {
		t.Fatalf("reading the stream: %v", err)
	}
	rep, err := st.Report()
	if err != nil {
		t.Fatalf("stream report: %v", err)
	}
	return data, rep
}

// TestFlightSharedAcrossEntryPoints: a buffered request, a streaming
// request and a prefetch for one view set are one transfer, in whichever
// order they arrive, and a streaming request that arrives second reads the
// bytes already verified instead of waiting for the whole frame.
func TestFlightSharedAcrossEntryPoints(t *testing.T) {
	r := newRig(t)
	publishStriped(t, r, 64)
	id := lightfield.ViewSetID{R: 1, C: 2}
	want := referenceFrame(t, r, id)

	check := func(t *testing.T, ca *ClientAgent, frames ...[]byte) {
		t.Helper()
		for i, f := range frames {
			if !bytes.Equal(f, want) {
				t.Errorf("caller %d: frame of %d bytes differs from the published %d", i, len(f), len(want))
			}
		}
		st := ca.Stats()
		if st.WANFetches != 1 || st.Coalesced != 1 || st.Misses != 1 {
			t.Errorf("WANFetches = %d, Coalesced = %d, Misses = %d; want 1, 1, 1",
				st.WANFetches, st.Coalesced, st.Misses)
		}
	}

	t.Run("stream then buffered", func(t *testing.T) {
		far := netsim.NewDialer(netsim.LinkProfile{Name: "far", Latency: 20 * time.Millisecond, Bandwidth: 1 << 20})
		ca := r.newClientAgent(t, func(c *ClientAgentConfig) {
			c.Dialer = far
			c.DVS = &dvs.Client{Addr: r.dvsClient.Addr, Dialer: far}
		})
		st, err := ca.GetViewSetStream(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		// The stream has not been read at all: its transfer is in flight.
		frame, rep, err := ca.GetViewSet(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		streamed, srep := drain(t, st)
		if srep.Class != AccessWAN || rep.Class != AccessHit {
			t.Errorf("classes: stream %v, buffered %v; want wan, hit", srep.Class, rep.Class)
		}
		check(t, ca, streamed, frame)
	})

	// The second caller's first byte must arrive while the flight is still
	// held mid-frame by the gate — it cannot have finished.
	secondStreams := func(t *testing.T, viaPrefetch bool) {
		gate := newGateDialer(t, int64(len(want))/2)
		ca := r.newClientAgent(t, func(c *ClientAgentConfig) {
			c.Dialer, c.Parallelism = gate, 1
		})
		first := make(chan []byte, 1)
		go func() {
			if viaPrefetch {
				ca.prefetch(id)
			}
			frame, _, err := ca.GetViewSet(context.Background(), id) // after a prefetch: what it cached
			if err != nil {
				t.Error(err)
			}
			first <- frame
		}()
		var firstFrame []byte
		defer func() { // also on a fatal path: the first caller reports into t
			gate.open()
			if firstFrame == nil {
				<-first
			}
		}()
		gate.waitBlocked(t)
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		st, err := ca.GetViewSetStream(ctx, id)
		if err != nil {
			t.Fatalf("second caller, with the first's transfer held mid-frame: %v", err)
		}
		var b [1]byte
		if _, err := io.ReadFull(st.Reader, b[:]); err != nil {
			t.Fatalf("first byte: %v", err)
		}
		select {
		case <-st.done:
			t.Fatal("the stream was final before the held transfer could finish")
		default:
		}
		gate.open()
		rest, rep := drain(t, st)
		if rep.Class != AccessHit {
			t.Errorf("second caller's class = %v, want hit (coalesced)", rep.Class)
		}
		firstFrame = <-first
		check(t, ca, append(b[:], rest...), firstFrame)
	}
	t.Run("buffered then stream", func(t *testing.T) { secondStreams(t, false) })
	t.Run("prefetch then stream", func(t *testing.T) { secondStreams(t, true) })
}

// tracedAgent is an agent with its own tracer.
func tracedAgent(t *testing.T, r *rig, mutate func(*ClientAgentConfig)) (*ClientAgent, *obs.Tracer) {
	tr := obs.NewTracer(256)
	ca := r.newClientAgent(t, func(c *ClientAgentConfig) {
		c.Tracer = tr
		if mutate != nil {
			mutate(c)
		}
	})
	return ca, tr
}

func spansNamed(tr *obs.Tracer, name string) (out []obs.SpanRecord) {
	for _, s := range tr.Export(0) {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestFlightStagedGoneCostsOneMiss: a staged copy that has vanished is a
// fallthrough inside the move's one flight — one miss, one DVS lookup —
// not a failed attempt followed by a second one.
func TestFlightStagedGoneCostsOneMiss(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca, tr := tracedAgent(t, r, nil)
	id := lightfield.ViewSetID{R: 0, C: 2}
	if err := ca.stageOne(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	ca.mu.Lock()
	for i := range ca.staged[id].Extents {
		for j := range ca.staged[id].Extents[i].Replicas {
			ca.staged[id].Extents[i].Replicas[j].ReadCap = "gone"
		}
	}
	ca.mu.Unlock()
	misses := ca.Stats().Misses
	resolves := len(spansNamed(tr, obs.SpanResolve))

	v, err := NewViewer(r.params, ca)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := v.MoveTo(context.Background(), r.params.SetCenterAngles(id))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Class != AccessWAN {
		t.Errorf("class = %v, want wan", rec.Class)
	}
	if ca.IsStaged(id) {
		t.Error("dead staged entry not forgotten")
	}
	dm := ca.Stats().Misses - misses
	dr := len(spansNamed(tr, obs.SpanResolve)) - resolves
	if dm != 1 || dr != 1 {
		t.Errorf("one move cost %d misses and %d resolves, want 1 and 1", dm, dr)
	}
}

// TestFlightTriesEveryExNodeReplica: when the first exNode the DVS lists
// has dead capabilities, a streaming fetch goes on to the second.
func TestFlightTriesEveryExNodeReplica(t *testing.T) {
	r := newRig(t)
	id := lightfield.ViewSetID{R: 1, C: 0}
	good, err := r.sa.Request(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceFrame(t, r, id)
	dead, err := exnode.Unmarshal(good)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dead.Extents {
		for j := range dead.Extents[i].Replicas {
			dead.Extents[i].Replicas[j].ReadCap = "gone"
		}
	}
	deadXML, err := dead.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	key := dvs.Key{Dataset: "twin", ViewSet: id.String()}
	for _, doc := range [][]byte{deadXML, good} {
		if err := r.dvsServer.Put(key, doc); err != nil {
			t.Fatal(err)
		}
	}
	ca := r.newClientAgent(t, func(c *ClientAgentConfig) { c.Dataset = "twin" })
	st, err := ca.GetViewSetStream(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(st.Reader)
	if err != nil {
		t.Fatalf("stream with a dead first exNode: %v", err)
	}
	rep, err := st.Report()
	if err != nil {
		t.Fatalf("report with a dead first exNode: %v", err)
	}
	if rep.Class != AccessWAN || !bytes.Equal(data, want) {
		t.Errorf("class %v, %d bytes; want wan and the %d published bytes", rep.Class, len(data), len(want))
	}
}

// TestFlightRemembersTheExNodeThatServed: of two exNodes the DVS lists, the
// first on a closed depot, the one remembered for the next miss is the one
// the frame came from; and when a remembered exNode stops serving, the miss
// drops it and goes back to the DVS instead of failing.
func TestFlightRemembersTheExNodeThatServed(t *testing.T) {
	r := newRig(t)
	id := lightfield.ViewSetID{R: 0, C: 1}
	good, err := r.sa.Request(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceFrame(t, r, id)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := l.Addr().String()
	l.Close()
	dead, err := exnode.Unmarshal(good)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dead.Extents {
		for j := range dead.Extents[i].Replicas {
			dead.Extents[i].Replicas[j].Depot = closed
		}
	}
	deadXML, err := dead.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	key := dvs.Key{Dataset: "twin", ViewSet: id.String()}
	for _, doc := range [][]byte{deadXML, good} {
		if err := r.dvsServer.Put(key, doc); err != nil {
			t.Fatal(err)
		}
	}
	ca, tr := tracedAgent(t, r, func(c *ClientAgentConfig) { c.Dataset = "twin" })
	// miss fetches the view set past the frame cache and returns how many
	// downloads were attempted and how many of them failed.
	seen := 0
	miss := func(what string) (attempts, failed int) {
		t.Helper()
		ca.cache.Remove(id.String())
		frame, rep, err := ca.GetViewSet(context.Background(), id)
		if err != nil || rep.Class != AccessWAN || !bytes.Equal(frame, want) {
			t.Fatalf("%s: class %v, %d bytes, %v; want the %d published bytes from the wan", what, rep.Class, len(frame), err, len(want))
		}
		spans := spansNamed(tr, obs.SpanDownload)
		for _, s := range spans[seen:] {
			if s.Attrs["error"] != "" {
				failed++
			}
		}
		attempts, seen = len(spans)-seen, len(spans)
		return attempts, failed
	}
	if attempts, failed := miss("first miss"); attempts != 2 || failed != 1 {
		t.Fatalf("first miss: %d downloads, %d failed; want the dead exNode tried first, then the live one", attempts, failed)
	}
	if attempts, failed := miss("second miss"); attempts != 1 || failed != 0 {
		t.Errorf("second miss: %d downloads, %d failed; want one, from the exNode that served the first", attempts, failed)
	}

	// The remembered exNode goes dead in its turn: the miss tries it, drops
	// it, and goes through the DVS's list.
	if err := ca.excach.Put(id.String(), deadXML); err != nil {
		t.Fatal(err)
	}
	if attempts, failed := miss("miss with a dead exNode remembered"); attempts != 3 || failed != 2 {
		t.Errorf("miss with a dead exNode remembered: %d downloads, %d failed; want 3 and 2", attempts, failed)
	}
	if attempts, failed := miss("miss after the recovery"); attempts != 1 || failed != 0 {
		t.Errorf("miss after the recovery: %d downloads, %d failed; want 1 and 0", attempts, failed)
	}
}

// TestFlightRefusesAnOversizedExNode: the DVS lists, before a valid exNode,
// one that claims a frame of 1 TiB — valid as an exNode, and a download
// allocates its length before the first byte. The agent refuses it as
// longer than any frame of its params and fetches from the valid one.
func TestFlightRefusesAnOversizedExNode(t *testing.T) {
	r := newRig(t)
	id := lightfield.ViewSetID{R: 1, C: 1}
	good, err := r.sa.Request(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceFrame(t, r, id)
	ex, err := exnode.Unmarshal(good)
	if err != nil {
		t.Fatal(err)
	}
	huge := &exnode.ExNode{Name: ex.Name, Length: 1 << 40, Extents: []exnode.Extent{
		{Offset: 0, Length: 1 << 40, Replicas: ex.Extents[0].Replicas},
	}}
	hugeXML, err := huge.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	key := dvs.Key{Dataset: "twin", ViewSet: id.String()}
	for _, doc := range [][]byte{hugeXML, good} {
		if err := r.dvsServer.Put(key, doc); err != nil {
			t.Fatal(err)
		}
	}
	ca := r.newClientAgent(t, func(c *ClientAgentConfig) { c.Dataset = "twin" })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frame, rep, err := ca.GetViewSet(context.Background(), id)
	runtime.ReadMemStats(&after)
	if err != nil || rep.Class != AccessWAN || !bytes.Equal(frame, want) {
		t.Fatalf("class %v, %d bytes, %v; want the %d published bytes from the wan", rep.Class, len(frame), err, len(want))
	}
	// Trying the 1 TiB exNode would have allocated its length.
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
		t.Errorf("the fetch allocated %d bytes in all", d)
	}
}

// TestFlightTracedFromViewer: the path users take — Viewer.MoveTo, which
// streams — leaves the trace, the event and the profile labels the
// buffered call always left.
func TestFlightTracedFromViewer(t *testing.T) {
	r := newRig(t)
	publishStriped(t, r, 64)
	id := lightfield.ViewSetID{R: 1, C: 3}
	gate := newGateDialer(t, 150)
	ca, tr := tracedAgent(t, r, func(c *ClientAgentConfig) { c.Dialer, c.Parallelism = gate, 1 })
	prof.SetLabelsEnabled(true)
	defer prof.SetLabelsEnabled(false)
	logger := obs.DefaultLogger()
	defer logger.Level.Set(logger.Level.Level())
	logger.Level.Set(slog.LevelDebug)

	v, err := NewViewer(r.params, ca)
	if err != nil {
		t.Fatal(err)
	}
	moved := make(chan error, 1)
	go func() {
		_, err := v.MoveTo(context.Background(), r.params.SetCenterAngles(id))
		moved <- err
	}()
	gate.waitBlocked(t)
	var goroutines bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&goroutines, 1); err != nil {
		t.Fatal(err)
	}
	gate.open()
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	if dump := goroutines.String(); !strings.Contains(dump, `"class":"agent_fetch"`) || !strings.Contains(dump, `"verb":"wan"`) {
		t.Error("no goroutine ran under {class=agent_fetch, verb=wan} while the transfer was in flight")
	}

	roots := spansNamed(tr, obs.SpanGetViewSet)
	if len(roots) != 1 {
		t.Fatalf("%d %s spans for one move, want 1 (spans: %v)", len(roots), obs.SpanGetViewSet, spanNames(tr))
	}
	root := roots[0]
	if root.ParentID != 0 || root.Attrs["id"] != id.String() || root.Attrs["class"] != AccessWAN.String() {
		t.Errorf("root span = %+v, want a root with id=%v class=wan", root, id)
	}
	for _, name := range []string{obs.SpanResolve, obs.SpanDownload} {
		ss := spansNamed(tr, name)
		if len(ss) != 1 || ss[0].ParentID != root.ID || ss[0].TraceID != root.TraceID {
			t.Errorf("%s: %+v, want one span under the root %d", name, ss, root.ID)
		}
	}
	found := false
	for _, ev := range logger.Events() {
		if ev.Name != obs.EvAgentFetch || ev.TraceID != root.TraceID {
			continue
		}
		found = true
		fields := map[string]string{}
		for _, f := range ev.Fields {
			fields[f.Key] = f.Value
		}
		if fields["viewset"] != id.String() || fields["class"] != AccessWAN.String() {
			t.Errorf("%s event fields = %v", obs.EvAgentFetch, fields)
		}
	}
	if !found {
		t.Errorf("no %s event in the move's trace", obs.EvAgentFetch)
	}
}

func spanNames(tr *obs.Tracer) (names []string) {
	for _, s := range tr.Export(0) {
		names = append(names, s.Name)
	}
	return names
}

// TestFlightSemantics: whichever way a request enters, the same situation
// gives the same frame, the same report and moves the same counters.
func TestFlightSemantics(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ecache, err := edge.NewCache(edge.CacheConfig{CapacityBytes: 1 << 20, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	esrv := edge.NewServer(ecache)
	edgeAddr, err := esrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { esrv.Close() })

	id := lightfield.ViewSetID{R: 1, C: 1}
	want := referenceFrame(t, r, id)
	wantVS, err := lightfield.DecodeViewSet(want, r.params)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// An entry returns the frame when it hands one out (the viewer only
	// hands out what it decoded from it).
	type result struct {
		frame []byte
		vs    *lightfield.ViewSet
		class AccessClass
		bytes int
	}
	decoded := func(t *testing.T, frame []byte, class AccessClass, n int) result {
		vs, err := lightfield.DecodeViewSet(frame, r.params)
		if err != nil {
			t.Error(err)
		}
		return result{frame, vs, class, n}
	}
	entries := []struct {
		name string
		get  func(t *testing.T, ca *ClientAgent) result
	}{
		{"GetViewSet", func(t *testing.T, ca *ClientAgent) result {
			frame, rep, err := ca.GetViewSet(ctx, id)
			if err != nil {
				t.Error(err)
			}
			return decoded(t, frame, rep.Class, rep.Bytes)
		}},
		{"GetViewSetStream", func(t *testing.T, ca *ClientAgent) result {
			st, err := ca.GetViewSetStream(ctx, id)
			if err != nil {
				t.Error(err)
				return result{}
			}
			frame, err := io.ReadAll(st.Reader)
			if err != nil {
				t.Error(err)
			}
			rep, err := st.Report()
			if err != nil {
				t.Error(err)
			}
			return decoded(t, frame, rep.Class, rep.Bytes)
		}},
		{"Viewer.MoveTo", func(t *testing.T, ca *ClientAgent) result {
			v, err := NewViewer(r.params, ca)
			if err != nil {
				t.Error(err)
				return result{}
			}
			rec, err := v.MoveTo(ctx, r.params.SetCenterAngles(id))
			if err != nil {
				t.Error(err)
			}
			vs, _ := v.ViewSet(id)
			return result{nil, vs, rec.Class, rec.Bytes}
		}},
		{"RemoteSource", func(t *testing.T, ca *ClientAgent) result {
			srv, err := NewClientAgentServer(ca, "neghip")
			if err != nil {
				t.Error(err)
				return result{}
			}
			addr, err := srv.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Error(err)
				return result{}
			}
			defer srv.Close()
			src := &RemoteSource{Addr: addr, Dataset: "neghip"}
			defer src.CloseIdle()
			frame, rep, err := src.GetViewSet(ctx, id)
			if err != nil {
				t.Error(err)
			}
			return decoded(t, frame, rep.Class, rep.Bytes)
		}},
	}

	// A class prepares the agent, says what class the request must report
	// and what the request — with the preparation's leader, for the
	// follower — must move. hold, when set, keeps a leader's transfer from
	// finishing until the request under test has joined it.
	classes := []struct {
		name    string
		mutate  func(c *ClientAgentConfig)
		prepare func(t *testing.T, ca *ClientAgent)
		leader  bool
		class   AccessClass
		moves   agentCounts
	}{
		{name: "hit", class: AccessHit,
			// Cached by a prefetch, so the hit also credits the prefetcher.
			prepare: func(t *testing.T, ca *ClientAgent) {
				ca.prefetch(id)
			},
			moves: agentCounts{Hits: 1, PrefetchUseful: 1}},
		{name: "wan", class: AccessWAN,
			moves: agentCounts{WAN: 1, Misses: 1}},
		{name: "lan-depot", class: AccessLANDepot,
			prepare: func(t *testing.T, ca *ClientAgent) {
				if err := ca.stageOne(ctx, id); err != nil {
					t.Fatal(err)
				}
			},
			moves: agentCounts{LAN: 1, Misses: 1}},
		{name: "edge", class: AccessEdge,
			mutate: func(c *ClientAgentConfig) { c.EdgeAddr = edgeAddr },
			moves:  agentCounts{Edge: 1, Misses: 1}},
		{name: "coalesced follower", class: AccessHit, leader: true,
			moves: agentCounts{WAN: 1, Misses: 1, Coalesced: 1, Hits: 1}},
		{name: "route through depot", class: AccessWAN,
			mutate: func(c *ClientAgentConfig) { c.RouteMissesThroughDepot = true },
			moves:  agentCounts{WAN: 1, Staged: 1, Misses: 1}},
	}

	for _, class := range classes {
		for _, entry := range entries {
			t.Run(class.name+"/"+entry.name, func(t *testing.T) {
				var gate *gateDialer
				ca := r.newClientAgent(t, func(c *ClientAgentConfig) {
					if class.leader {
						gate = newGateDialer(t, 0)
						c.Dialer = gate
					}
					if class.mutate != nil {
						class.mutate(c)
					}
				})
				if class.prepare != nil {
					class.prepare(t, ca)
				}
				before := countsOf(ca)
				var got result
				if class.leader {
					led := make(chan error, 1)
					go func() {
						_, _, err := ca.GetViewSet(ctx, id)
						led <- err
					}()
					gate.waitBlocked(t)
					followed := make(chan result, 1)
					go func() { followed <- entry.get(t, ca) }()
					waitLookups(t, ca, 3)
					gate.open()
					if err := <-led; err != nil {
						t.Fatal(err)
					}
					got = <-followed
				} else {
					got = entry.get(t, ca)
				}
				if got.frame != nil && !bytes.Equal(got.frame, want) {
					t.Errorf("frame of %d bytes differs from the published %d", len(got.frame), len(want))
				}
				if got.vs == nil || !reflect.DeepEqual(got.vs.Views, wantVS.Views) {
					t.Error("decoded views differ from the published view set")
				}
				if got.class != class.class || got.bytes != len(want) {
					t.Errorf("report: class %v, %d bytes; want %v, %d", got.class, got.bytes, class.class, len(want))
				}
				if moved := countsOf(ca).sub(before); moved != class.moves {
					t.Errorf("counters moved by %+v, want %+v", moved, class.moves)
				}
			})
		}
	}
}

// TestFlightCancellation: a flight belongs to nobody. The caller that
// started it can give up without anyone else noticing; when everyone has,
// the transfer stops; and FetchTimeout ends one that is stuck.
func TestFlightCancellation(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	id := lightfield.ViewSetID{R: 0, C: 3}
	want := referenceFrame(t, r, id)
	bg := context.Background()

	// within fails the test instead of hanging it when f does not return
	// while the transfer is still held. f runs on a goroutine of its own
	// and may outlive the test, so it reports by returning.
	within := func(t *testing.T, what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s did not return while the transfer was held", what)
		}
	}

	t.Run("buffered leader leaves", func(t *testing.T) {
		gate := newGateDialer(t, 0)
		ca := r.newClientAgent(t, func(c *ClientAgentConfig) { c.Dialer = gate })
		lctx, cancel := context.WithCancel(bg)
		led := make(chan error, 1)
		go func() {
			_, _, err := ca.GetViewSet(lctx, id)
			led <- err
		}()
		gate.waitBlocked(t)
		defer cancel()
		fctx, fcancel := context.WithTimeout(bg, 5*time.Second)
		defer fcancel()
		st, err := ca.GetViewSetStream(fctx, id)
		if err != nil {
			t.Fatalf("follower, with the leader's transfer held: %v", err)
		}
		cancel()
		within(t, "the cancelled leader", func() error {
			if err := <-led; !errors.Is(err, context.Canceled) {
				return fmt.Errorf("leader returned %v, want context.Canceled", err)
			}
			return nil
		})
		gate.open()
		if data, rep := drain(t, st); !bytes.Equal(data, want) || rep.Class != AccessHit {
			t.Errorf("follower: %d bytes, class %v; want the %d published bytes as a coalesced hit", len(data), rep.Class, len(want))
		}
	})

	t.Run("streaming leader leaves", func(t *testing.T) {
		gate := newGateDialer(t, 0)
		ca := r.newClientAgent(t, func(c *ClientAgentConfig) { c.Dialer = gate })
		lctx, cancel := context.WithCancel(bg)
		defer cancel()
		st, err := ca.GetViewSetStream(lctx, id)
		if err != nil {
			t.Fatal(err)
		}
		gate.waitBlocked(t)
		followed := make(chan error, 1)
		var frame []byte
		go func() {
			var err error
			frame, _, err = ca.GetViewSet(bg, id)
			followed <- err
		}()
		waitLookups(t, ca, 3)
		cancel()
		within(t, "the cancelled leader's report", func() error {
			if _, err := st.Report(); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("leader's report returned %v, want context.Canceled", err)
			}
			return nil
		})
		gate.open()
		if err := <-followed; err != nil || !bytes.Equal(frame, want) {
			t.Errorf("follower: %d bytes, %v; want the %d published bytes", len(frame), err, len(want))
		}
	})

	t.Run("everyone leaves", func(t *testing.T) {
		gate := newGateDialer(t, 0)
		ca := r.newClientAgent(t, func(c *ClientAgentConfig) { c.Dialer = gate })
		baseline := runtime.NumGoroutine()
		lctx, cancel := context.WithCancel(bg)
		defer cancel()
		st, err := ca.GetViewSetStream(lctx, id)
		if err != nil {
			t.Fatal(err)
		}
		gate.waitBlocked(t)
		followed := make(chan error, 1)
		go func() {
			_, _, err := ca.GetViewSet(lctx, id)
			followed <- err
		}()
		waitLookups(t, ca, 3)
		cancel()
		within(t, "the abandoned transfer", func() error {
			if err := <-followed; !errors.Is(err, context.Canceled) {
				return fmt.Errorf("buffered caller returned %v, want context.Canceled", err)
			}
			// Nobody is left: the flight is cancelled, which a reader
			// still holding the stream sees as a failed read.
			if _, err := io.ReadAll(st.Reader); err == nil {
				return errors.New("a stream nobody waits for any more read to its end")
			}
			return nil
		})
		gate.open()
		// The abandoned flight is unlinked: the next request starts afresh.
		if frame, rep, err := ca.GetViewSet(bg, id); err != nil || rep.Class != AccessWAN || !bytes.Equal(frame, want) {
			t.Errorf("after the abandoned flight: class %v, %v", rep.Class, err)
		}
		if misses := ca.Stats().Misses; misses != 2 {
			t.Errorf("Misses = %d, want 2 (the abandoned flight and the fresh one)", misses)
		}
		ca.Close()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak: %d now vs %d before the flights\n%s",
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})

	t.Run("FetchTimeout ends a wedged flight", func(t *testing.T) {
		gate := newGateDialer(t, 0)
		ca := r.newClientAgent(t, func(c *ClientAgentConfig) {
			c.Dialer, c.FetchTimeout = gate, 100*time.Millisecond
		})
		within(t, "the wedged fetch", func() error {
			if _, _, err := ca.GetViewSet(bg, id); !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("buffered: %v, want context.DeadlineExceeded", err)
			}
			st, err := ca.GetViewSetStream(bg, id)
			if err != nil {
				return err
			}
			if _, err := st.Report(); !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("streaming: %v, want context.DeadlineExceeded", err)
			}
			return nil
		})
	})
}

// TestFlightFailureAfterPublishedBytes: a staged copy whose last extent has
// vanished fails after its first extents were verified and handed to
// readers. The flight goes on to the WAN copy inside the same move — one
// miss, one lookup — the readers that were following the staged copy end
// with the whole frame, and nothing is written to memory a reader may be
// reading (the race detector watches).
func TestFlightFailureAfterPublishedBytes(t *testing.T) {
	r := newRig(t)
	publishStriped(t, r, 64)
	id := lightfield.ViewSetID{R: 0, C: 1}
	want := referenceFrame(t, r, id)
	ca, tr := tracedAgent(t, r, func(c *ClientAgentConfig) { c.Parallelism = 1 })
	if err := ca.stageOne(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	ca.mu.Lock()
	exts := ca.staged[id].SortedExtents()
	last := exts[len(exts)-1].Offset
	for i := range ca.staged[id].Extents {
		if ca.staged[id].Extents[i].Offset != last {
			continue
		}
		for j := range ca.staged[id].Extents[i].Replicas {
			ca.staged[id].Extents[i].Replicas[j].ReadCap = "gone"
		}
	}
	ca.mu.Unlock()
	if len(exts) < 3 {
		t.Fatalf("staged copy has %d extents, need a few", len(exts))
	}
	resolves := len(spansNamed(tr, obs.SpanResolve))

	const readers = 3
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		st, err := ca.GetViewSetStream(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := io.ReadAll(st.Reader)
			if err != nil || !bytes.Equal(data, want) {
				t.Errorf("reader %d: %d bytes, %v; want the %d published bytes", i, len(data), err, len(want))
			}
			if _, err := st.Report(); err != nil {
				t.Errorf("reader %d report: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if st := ca.Stats(); st.WANFetches != 1 || st.LANFetches != 0 || ca.IsStaged(id) {
		t.Errorf("WANFetches = %d, LANFetches = %d, still staged = %v; want 1, 0, false",
			st.WANFetches, st.LANFetches, ca.IsStaged(id))
	}
	if misses, dr := ca.Stats().Misses, len(spansNamed(tr, obs.SpanResolve))-resolves; misses != 1 || dr != 1 {
		t.Errorf("Misses = %d, resolves = %d; want 1 and 1", misses, dr)
	}
}
