package agent

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
)

// gatedGen wraps a generator so tests can hold the scheduler busy: every
// GenerateViewSet blocks until the test sends on gate (or ctx ends).
type gatedGen struct {
	lightfield.Generator
	gate chan struct{}

	mu    sync.Mutex
	calls map[lightfield.ViewSetID]int
}

func newGatedGen(t *testing.T) *gatedGen {
	t.Helper()
	inner, err := lightfield.NewProceduralGenerator(tinyParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	return &gatedGen{
		Generator: inner,
		gate:      make(chan struct{}),
		calls:     make(map[lightfield.ViewSetID]int),
	}
}

func (g *gatedGen) GenerateViewSet(ctx context.Context, id lightfield.ViewSetID) (*lightfield.ViewSet, error) {
	g.mu.Lock()
	g.calls[id]++
	g.mu.Unlock()
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Generator.GenerateViewSet(ctx, id)
}

func (g *gatedGen) callsFor(id lightfield.ViewSetID) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls[id]
}

// overloadAgent builds a server agent over one depot with the gated
// generator and the given pending bound.
func overloadAgent(t *testing.T, gen *gatedGen, maxPending int) *ServerAgent {
	t.Helper()
	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 24, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := ibp.NewServer(d)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sa, err := NewServerAgent(ServerAgentConfig{
		Dataset:    "neghip",
		Gen:        gen,
		Depots:     []string{addr},
		MaxPending: maxPending,
		Obs:        obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sa.Close() })
	return sa
}

// occupy submits a request and waits until the scheduler is inside the
// generator rendering it, so further requests pile up on the pending
// stack. The returned channel yields the request's eventual error.
func occupy(t *testing.T, sa *ServerAgent, gen *gatedGen, id lightfield.ViewSetID) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := sa.Request(context.Background(), id)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gen.callsFor(id) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduler never started rendering the occupying request")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// TestMaxPendingEvictsOldest: with the generator busy and a 1-entry
// pending bound, a newer request evicts the older queued one, whose
// waiter gets a typed BUSY; the newest request still completes.
func TestMaxPendingEvictsOldest(t *testing.T) {
	gen := newGatedGen(t)
	sa := overloadAgent(t, gen, 1)

	occupied := occupy(t, sa, gen, lightfield.ViewSetID{R: 0, C: 0})

	// First queued request fills the bound...
	evictedErr := make(chan error, 1)
	go func() {
		_, err := sa.Request(context.Background(), lightfield.ViewSetID{R: 0, C: 1})
		evictedErr <- err
	}()
	waitPending(t, sa, 1)

	// ...and the next one pushes it out, latest request first.
	survivorErr := make(chan error, 1)
	go func() {
		_, err := sa.Request(context.Background(), lightfield.ViewSetID{R: 0, C: 2})
		survivorErr <- err
	}()

	select {
	case err := <-evictedErr:
		if !errors.Is(err, ibp.ErrBusy) {
			t.Fatalf("evicted waiter got %v, want ibp.ErrBusy", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evicted waiter never answered")
	}

	close(gen.gate) // let every remaining render finish
	if err := <-occupied; err != nil {
		t.Fatalf("occupying request: %v", err)
	}
	select {
	case err := <-survivorErr:
		if err != nil {
			t.Fatalf("surviving (latest) request: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("surviving request never completed")
	}
	if gen.callsFor(lightfield.ViewSetID{R: 0, C: 1}) != 0 {
		t.Fatal("evicted request was rendered anyway")
	}
	st := sa.Stats()
	if st.Evicted != 1 {
		t.Fatalf("stats.Evicted = %d, want 1", st.Evicted)
	}
}

// TestDeadlineDropSkipsRender: a queued request whose only waiter's
// deadline expires while waiting is discarded unrendered.
func TestDeadlineDropSkipsRender(t *testing.T) {
	gen := newGatedGen(t)
	sa := overloadAgent(t, gen, 0)

	occupied := occupy(t, sa, gen, lightfield.ViewSetID{R: 0, C: 0})

	stale := lightfield.ViewSetID{R: 1, C: 0}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sa.Request(ctx, stale); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stale request returned %v, want DeadlineExceeded", err)
	}

	close(gen.gate)
	if err := <-occupied; err != nil {
		t.Fatalf("occupying request: %v", err)
	}
	// Drain the scheduler: wait for the stale entry to be considered.
	deadline := time.Now().Add(5 * time.Second)
	for sa.Stats().DeadlineDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want DeadlineDrops > 0", sa.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if n := gen.callsFor(stale); n != 0 {
		t.Fatalf("stale request rendered %d times, want 0", n)
	}
}

// TestExpiredBudgetShedsImmediately: a request arriving with its context
// already done is refused with BUSY without touching the queue, and
// counted as a deadline drop.
func TestExpiredBudgetShedsImmediately(t *testing.T) {
	gen := newGatedGen(t)
	close(gen.gate)
	sa := overloadAgent(t, gen, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sa.Request(ctx, lightfield.ViewSetID{R: 0, C: 0}); !errors.Is(err, ibp.ErrBusy) {
		t.Fatalf("expired request returned %v, want ibp.ErrBusy", err)
	}
	if st := sa.Stats(); st.DeadlineDrops != 1 || st.Requests != 0 {
		t.Fatalf("stats = %+v, want one deadline drop and no queued request", st)
	}
}

// TestRenderBusyWireShape pins the wire form of a shed: "ERR BUSY ...",
// and that a deadline=0 token on the request line triggers it — the
// overload reply an old client still parses as a generic error.
func TestRenderBusyWireShape(t *testing.T) {
	gen := newGatedGen(t)
	close(gen.gate)
	sa := overloadAgent(t, gen, 0)
	addr, err := sa.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "RENDER neghip r0c0 deadline=0\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR BUSY ") {
		t.Fatalf("shed reply = %q, want ERR BUSY prefix", line)
	}
}

// fakeRenderServer accepts one connection, records the request line, and
// writes reply. It returns the address and a channel yielding the line.
func fakeRenderServer(t *testing.T, reply string) (string, chan string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	lines := make(chan string, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil {
			return
		}
		lines <- line
		fmt.Fprint(c, reply)
	}()
	return l.Addr().String(), lines
}

// TestRequestRemoteClassifiesBusy: the client half turns an ERR BUSY
// reply into the typed ibp.ErrBusy sentinel.
func TestRequestRemoteClassifiesBusy(t *testing.T) {
	addr, _ := fakeRenderServer(t, "ERR BUSY render request shed, retry later\n")
	_, err := RequestRemote(context.Background(), nil, addr, "neghip", "r0c0")
	if !errors.Is(err, ibp.ErrBusy) {
		t.Fatalf("err = %v, want ibp.ErrBusy", err)
	}
}

// TestRequestRemoteEmitsDeadlineToken: with propagation on and a caller
// deadline, the request line carries deadline= (before any trace token);
// with propagation off the line is the bare pre-overload shape.
func TestRequestRemoteEmitsDeadlineToken(t *testing.T) {
	obs.SetPropagation(true)
	defer obs.SetPropagation(false)
	addr, lines := fakeRenderServer(t, "OK 2\nhi")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	body, err := RequestRemote(ctx, nil, addr, "neghip", "r0c0")
	if err != nil || string(body) != "hi" {
		t.Fatalf("RequestRemote = %q, %v", body, err)
	}
	line := <-lines
	if !strings.HasPrefix(line, "RENDER neghip r0c0 deadline=") {
		t.Fatalf("request line = %q, want deadline token", line)
	}

	obs.SetPropagation(false)
	addr2, lines2 := fakeRenderServer(t, "OK 2\nhi")
	if _, err := RequestRemote(ctx, nil, addr2, "neghip", "r0c0"); err != nil {
		t.Fatal(err)
	}
	if line := <-lines2; line != "RENDER neghip r0c0\n" {
		t.Fatalf("pre-overload line = %q, want bare request", line)
	}
}

// waitPending spins until the agent's pending stack reaches n entries.
func waitPending(t *testing.T, sa *ServerAgent, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sa.mu.Lock()
		depth := len(sa.pending)
		sa.mu.Unlock()
		if depth >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending depth never reached %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}
