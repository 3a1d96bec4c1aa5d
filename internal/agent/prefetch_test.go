package agent

import (
	"context"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lonviz/internal/dvs"
	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
)

// The prefetcher is one queue and one worker: a move replaces the queue
// with its targets, the worker fetches them one at a time, and it starts
// none while a flight a user request started is in flight. These tests
// read that off the DVS lookups the agent sends, held by the test; the
// ones that need a queue of more than one set run the quadrant policy.

// lookupGate passes the agent's requests through to the real servers but
// holds each view set's DVS lookup ("GET <dataset> <view set>") until the
// test lets that view set through, and logs the lookups as they arrive. A
// flight and a staging copy both begin with their lookup, so the log is the
// order in which the agent starts its work. Each entry names the earlier
// lookups whose frame had not landed in the agent's cache at that moment.
// Third-party COPY requests, which only the stager sends, are logged as
// "COPY" and not held.
type lookupGate struct {
	landed func(key string) bool // the agent's cache; set before its first request

	mu      sync.Mutex
	passes  map[string]chan struct{}
	all     chan struct{} // closed: nothing is held any more
	log     []lookup
	changed chan struct{} // closed and replaced when log grows
}

type lookup struct {
	key      string
	unlanded []string
}

func newLookupGate(t *testing.T) *lookupGate {
	g := &lookupGate{passes: make(map[string]chan struct{}), all: make(chan struct{}), changed: make(chan struct{})}
	t.Cleanup(g.releaseAll)
	return g
}

// gatedAgent is the rig's agent with prefetching on and every request
// through a lookupGate.
func gatedAgent(t *testing.T, r *rig, mutate func(*ClientAgentConfig)) (*ClientAgent, *lookupGate) {
	t.Helper()
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := newLookupGate(t)
	ca := r.newClientAgent(t, func(c *ClientAgentConfig) {
		c.DVS = &dvs.Client{Addr: r.dvsClient.Addr, Dialer: g}
		c.Dialer = g
		c.Prefetch = true
		if mutate != nil {
			mutate(c)
		}
	})
	g.landed = ca.cache.Contains
	return ca, g
}

// pass returns key's channel, closed once the test has released it; g.mu
// is held.
func (g *lookupGate) pass(key string) chan struct{} {
	ch := g.passes[key]
	if ch == nil {
		ch = make(chan struct{})
		g.passes[key] = ch
	}
	return ch
}

// release lets key's lookups through, the held one and any later.
func (g *lookupGate) release(key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ch := g.pass(key); !isClosed(ch) {
		close(ch)
	}
}

func (g *lookupGate) releaseAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !isClosed(g.all) {
		close(g.all)
	}
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// arrive logs a request; g.mu is held.
func (g *lookupGate) arrive(key string) {
	lk := lookup{key: key}
	for _, prev := range g.log {
		if prev.key != "COPY" && !g.landed(prev.key) {
			lk.unlanded = append(lk.unlanded, prev.key)
		}
	}
	g.log = append(g.log, lk)
	close(g.changed)
	g.changed = make(chan struct{})
}

// await returns the n-th logged request (from 1), waiting for it to arrive.
func (g *lookupGate) await(t *testing.T, n int) lookup {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		g.mu.Lock()
		if len(g.log) >= n {
			lk := g.log[n-1]
			g.mu.Unlock()
			return lk
		}
		changed := g.changed
		g.mu.Unlock()
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("request %d never reached the gate; log %v", n, g.logged())
		}
	}
}

func (g *lookupGate) logged() []lookup {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.log)
}

func (g *lookupGate) Dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &lookupGateConn{Conn: c, g: g}, nil
}

type lookupGateConn struct {
	net.Conn
	g *lookupGate
}

// Write sees each request line whole: both clients write one in one call,
// a tagged one behind its tag ("T7 COPY ...").
func (c *lookupGateConn) Write(b []byte) (int, error) {
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	g := c.g
	switch {
	case len(f) == 3 && f[0] == "GET":
		g.mu.Lock()
		g.arrive(f[2])
		pass := g.pass(f[2])
		g.mu.Unlock()
		select {
		case <-pass:
		case <-g.all:
		}
	case slices.Contains(f[:min(2, len(f))], "COPY"):
		g.mu.Lock()
		g.arrive("COPY")
		g.mu.Unlock()
	}
	return c.Conn.Write(b)
}

// quadrant sets the paper's policy, which queues three sets a move.
func quadrant(c *ClientAgentConfig) { c.PrefetchPolicy = PrefetchQuadrant }

// cursorFor returns the cursor at the centre of view set id and the
// quadrant policy's targets from there.
func cursorFor(p lightfield.Params, id lightfield.ViewSetID) (geom.Spherical, []lightfield.ViewSetID) {
	sp := p.SetCenterAngles(id)
	return sp, p.QuadrantPrefetch(sp)
}

func keys(ids []lightfield.ViewSetID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// userFetch starts a user's GetViewSet of id and returns its outcome's
// channel.
func userFetch(ca *ClientAgent, id lightfield.ViewSetID) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, _, err := ca.GetViewSet(context.Background(), id)
		done <- err
	}()
	return done
}

// TestOnePrefetchInFlight: a move's targets are fetched one at a time, in
// the policy's order — each lookup reaches the directory only once the
// previous target's frame has landed.
func TestOnePrefetchInFlight(t *testing.T) {
	r := newRig(t)
	ca, gate := gatedAgent(t, r, quadrant)
	sp, targets := cursorFor(r.params, lightfield.ViewSetID{R: 1, C: 1})
	if len(targets) < 2 {
		t.Fatalf("the move predicts %d prefetch targets, want at least 2", len(targets))
	}
	ca.OnUserMove(sp)
	for i, want := range keys(targets) {
		lk := gate.await(t, i+1)
		if lk.key != want {
			t.Errorf("prefetch %d is %s, want %s (targets %v)", i+1, lk.key, want, targets)
		}
		if len(lk.unlanded) > 0 {
			t.Errorf("prefetch of %s started while %v had not landed", lk.key, lk.unlanded)
		}
		gate.release(lk.key)
	}
}

// TestMoveDropsStalePrefetches: the next move replaces the queue, so the
// earlier move's targets that had not started are never fetched.
func TestMoveDropsStalePrefetches(t *testing.T) {
	r := newRig(t)
	ca, gate := gatedAgent(t, r, quadrant)
	// Two moves with no target in common, the first with more than one.
	var spA, spB geom.Spherical
	var targetsA, targetsB []lightfield.ViewSetID
	disjoint := func() bool {
		return len(targetsA) >= 2 && len(targetsB) >= 1 &&
			!slices.ContainsFunc(targetsB, func(id lightfield.ViewSetID) bool { return slices.Contains(targetsA, id) })
	}
search:
	for _, a := range r.params.AllViewSets() {
		for _, b := range r.params.AllViewSets() {
			spA, targetsA = cursorFor(r.params, a)
			spB, targetsB = cursorFor(r.params, b)
			if disjoint() {
				break search
			}
		}
	}
	if !disjoint() {
		t.Fatal("no two moves with disjoint prefetch targets")
	}

	ca.OnUserMove(spA)
	first := gate.await(t, 1) // the first move's first target, in flight
	if first.key != targetsA[0].String() {
		t.Fatalf("first prefetch is %s, want %s", first.key, targetsA[0])
	}
	ca.OnUserMove(spB)
	gate.release(first.key)
	for i, want := range keys(targetsB) {
		lk := gate.await(t, i+2)
		if lk.key != want {
			t.Fatalf("request %d after the second move is %s, want %s: the first move's %v were stale (log %v)",
				i+1, lk.key, want, targetsA[1:], gate.logged())
		}
		gate.release(lk.key)
	}
}

// TestNoPrefetchStartsWhileUserWaits: a move that arrives while a user's
// fetch is in flight queues its targets, and the first of them starts only
// once the user's frame has landed.
func TestNoPrefetchStartsWhileUserWaits(t *testing.T) {
	r := newRig(t)
	ca, gate := gatedAgent(t, r, quadrant)
	user := lightfield.ViewSetID{R: 1, C: 3}
	sp, targets := cursorFor(r.params, lightfield.ViewSetID{R: 1, C: 1})
	if len(targets) == 0 || slices.Contains(targets, user) {
		t.Fatalf("targets %v: want some, not %v", targets, user)
	}
	fetched := userFetch(ca, user)
	gate.await(t, 1) // the user's lookup, held: its flight is in flight
	ca.OnUserMove(sp)
	gate.release(user.String())
	if err := <-fetched; err != nil {
		t.Fatal(err)
	}
	for i := range targets {
		lk := gate.await(t, i+2)
		if slices.Contains(lk.unlanded, user.String()) {
			t.Errorf("prefetch of %s started while the user's fetch of %v was in flight", lk.key, user)
		}
		gate.release(lk.key)
	}
}

// TestCloseStopsParkedPrefetcher: Close returns with the worker gone while
// it waits at the foreground gate, and nothing it had queued starts.
func TestCloseStopsParkedPrefetcher(t *testing.T) {
	r := newRig(t)
	ca, gate := gatedAgent(t, r, nil)
	user := lightfield.ViewSetID{R: 1, C: 3}
	sp, targets := cursorFor(r.params, lightfield.ViewSetID{R: 1, C: 1})
	if len(targets) == 0 {
		t.Fatal("the move predicts no prefetch targets")
	}
	fetched := userFetch(ca, user)
	gate.await(t, 1)
	ca.OnUserMove(sp) // queued behind the user's fetch: the worker waits at the gate

	closed := make(chan struct{})
	go func() {
		ca.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while the prefetch worker waited at the gate")
	}
	// Close waits for the worker to return; let it finish exiting.
	deadline := time.Now().Add(10 * time.Second)
	for workerRunning() {
		if time.Now().After(deadline) {
			t.Fatal("the prefetch worker outlived Close")
		}
		runtime.Gosched()
	}
	gate.release(user.String())
	<-fetched // the depot connections are closed: the fetch may fail
	if n := len(gate.logged()); n != 1 {
		t.Errorf("%d requests reached the gate after Close, want only the user's: %v", n-1, gate.logged())
	}
}

func workerRunning() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*ClientAgent).prefetchWorker")
}

// TestSuppressStageOnMissPausesStager: with SuppressStageOnMiss the stager
// waits at the same gate as the prefetcher — nothing staged starts, not
// its lookup and not its COPY, while a user's miss is in flight — and
// stages the whole database once the miss has landed.
func TestSuppressStageOnMissPausesStager(t *testing.T) {
	r := newRig(t)
	ca, gate := gatedAgent(t, r, func(c *ClientAgentConfig) {
		c.Prefetch = false
		c.SuppressStageOnMiss = true
	})
	user := lightfield.ViewSetID{R: 1, C: 2}
	fetched := userFetch(ca, user)
	gate.await(t, 1) // the user's miss is in flight
	done, err := ca.StartPrestaging(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gate.release(user.String())
	if err := <-fetched; err != nil {
		t.Fatal(err)
	}
	gate.releaseAll()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("staging stalled at %d of %d", ca.StagedCount(), r.params.NumViewSets())
	}
	if got := ca.StagedCount(); got != r.params.NumViewSets() {
		t.Errorf("staged %d of %d view sets", got, r.params.NumViewSets())
	}
	copies := 0
	for _, lk := range gate.logged()[1:] {
		if lk.key == "COPY" {
			copies++
		}
		if slices.Contains(lk.unlanded, user.String()) {
			t.Errorf("staging sent %s while the user's miss was in flight", lk.key)
		}
	}
	if copies == 0 {
		t.Error("no staging COPY reached a depot")
	}
}

// parkedPathAgent is the rig's agent under the default policy, with its
// prefetch worker held at the foreground gate for the whole test, so what
// a move queues stays in the queue to be read. A user's GetViewSet still
// caches its frame.
func parkedPathAgent(t *testing.T, r *rig) *ClientAgent {
	t.Helper()
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, func(c *ClientAgentConfig) { c.Prefetch = true })
	ca.foreground(1)
	return ca
}

// queuedBy makes the move and returns the prefetch queue it left.
func queuedBy(ca *ClientAgent, sp geom.Spherical) []lightfield.ViewSetID {
	ca.OnUserMove(sp)
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return slices.Clone(ca.prefetchQ)
}

// fetchAll has a user fetch each of ids, so the agent caches them.
func fetchAll(t *testing.T, ca *ClientAgent, ids ...lightfield.ViewSetID) {
	t.Helper()
	for _, id := range ids {
		if _, _, err := ca.GetViewSet(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

// pathWalk is two moves east, a set apart, and the set one more step
// enters. At the centre of a southern set the quadrant has all three
// targets: north, west and north-west.
func pathWalk(p lightfield.Params) (first, second geom.Spherical, next lightfield.ViewSetID) {
	return p.SetCenterAngles(lightfield.ViewSetID{R: 1, C: 0}),
		p.SetCenterAngles(lightfield.ViewSetID{R: 1, C: 1}),
		lightfield.ViewSetID{R: 1, C: 2}
}

// TestFirstMoveTakesQuadrantFirst: a move with no motion behind it queues
// the quadrant's first target, and only that.
func TestFirstMoveTakesQuadrantFirst(t *testing.T) {
	r := newRig(t)
	ca := parkedPathAgent(t, r)
	sp, _, _ := pathWalk(r.params)
	want := r.params.QuadrantPrefetch(sp)[:1]
	if got := queuedBy(ca, sp); !slices.Equal(got, want) {
		t.Errorf("first move queued %v, want %v", got, want)
	}
}

// TestPathMoveQueuesOneSet: a moving cursor queues exactly one set, the
// one its next step enters, and not the quadrant's three.
func TestPathMoveQueuesOneSet(t *testing.T) {
	r := newRig(t)
	ca := parkedPathAgent(t, r)
	first, second, next := pathWalk(r.params)
	queuedBy(ca, first)
	if quad := r.params.QuadrantPrefetch(second); len(quad) < 2 || quad[0] == next {
		t.Fatalf("quadrant %v: want several targets, led by another set than %v", quad, next)
	}
	if got := queuedBy(ca, second); !slices.Equal(got, []lightfield.ViewSetID{next}) {
		t.Errorf("path move queued %v, want [%v]", got, next)
	}
}

// TestCachedPathTargetFallsThrough: when the set the next step enters is
// cached, the move queues the quadrant's first target that is not — one
// set again.
func TestCachedPathTargetFallsThrough(t *testing.T) {
	r := newRig(t)
	ca := parkedPathAgent(t, r)
	first, second, next := pathWalk(r.params)
	quad := r.params.QuadrantPrefetch(second)
	fetchAll(t, ca, next, quad[0])
	want := quad[slices.IndexFunc(quad, func(id lightfield.ViewSetID) bool { return id != next && id != quad[0] })]
	queuedBy(ca, first)
	if got := queuedBy(ca, second); !slices.Equal(got, []lightfield.ViewSetID{want}) {
		t.Errorf("with %v and %v cached the move queued %v, want [%v]", next, quad[0], got, want)
	}
}

// TestServedAgentQueuesAroundTheMover: two remote clients share one agent
// and take turns to move — A east along row 1, B standing at r00c02. A
// shared agent runs the quadrant, which reads no history, so each move
// queues the mover's own quadrant, every set a neighbour of the mover's,
// whatever the other client did in between. (The path predictor would
// read the jump between the two cursors as a step.)
func TestServedAgentQueuesAroundTheMover(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, func(c *ClientAgentConfig) {
		c.Prefetch = true
		c.PrefetchPolicy = PrefetchQuadrant
	})
	ca.foreground(1) // the worker stays parked, so the queue stays to be read
	srv, err := NewClientAgentServer(ca, "neghip")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	a := &RemoteSource{Addr: addr, Dataset: "neghip"}
	b := &RemoteSource{Addr: addr, Dataset: "neghip"}
	t.Cleanup(a.CloseIdle)
	t.Cleanup(b.CloseIdle)

	p := r.params
	standing := lightfield.ViewSetID{R: 0, C: 2}
	for c := range p.SetCols() {
		for _, mv := range []struct {
			name string
			src  *RemoteSource
			at   lightfield.ViewSetID
		}{{"A", a, lightfield.ViewSetID{R: 1, C: c}}, {"B", b, standing}} {
			sp := p.SetCenterAngles(mv.at)
			mv.src.OnUserMove(sp)
			ca.mu.Lock()
			got := slices.Clone(ca.prefetchQ)
			ca.mu.Unlock()
			if want := p.QuadrantPrefetch(sp); len(got) == 0 || !slices.Equal(got, want) {
				t.Errorf("client %s at %v queued %v, want its quadrant %v", mv.name, mv.at, got, want)
			}
			for _, id := range got {
				if !slices.Contains(p.Neighbors(mv.at), id) {
					t.Errorf("client %s at %v queued %v, not a neighbour of its set", mv.name, mv.at, id)
				}
			}
		}
	}
}
