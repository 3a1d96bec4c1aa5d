package wire_test

// How tagged requests are executed — a worker that finishes an exchange
// waits for the reader to hand it the next one instead of exiting — and what
// a reply that fails halfway through its write does to the connection.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lonviz/internal/bufpool"
	"lonviz/internal/obs"
	"lonviz/internal/wire"
)

// testService lists PIPELINE and three verbs: PING answers OK, BODY <n>
// answers OK <n> and n bytes from the pool, WAIT holds its worker until
// release is closed and then answers OK.
func testService(release <-chan struct{}) wire.Service {
	ok := func(_ context.Context, _ *wire.Request, r *wire.Reply) bool {
		r.Line("OK")
		return true
	}
	return wire.Service{
		Names: wire.Names{Component: "test"},
		Verbs: map[string]wire.Verb{
			"PIPELINE": wire.Pipeline,
			"PING":     {Handle: ok},
			"BODY": {Handle: func(_ context.Context, req *wire.Request, r *wire.Reply) bool {
				n, _ := strconv.Atoi(req.Fields[1])
				fmt.Fprintf(r, "OK %d\n", n)
				r.PooledBody(bufpool.Get(n))
				return true
			}},
			"WAIT": {Handle: func(ctx context.Context, req *wire.Request, r *wire.Reply) bool {
				<-release
				return ok(ctx, req, r)
			}},
		},
		LineCap: 1024,
		Busy:    func(reason string) string { return "ERR BUSY " + reason },
		Refuse:  func(msg string) string { return "ERR " + msg },
	}
}

// serveTest serves svc on l until the test ends.
func serveTest(t *testing.T, svc wire.Service, l net.Listener) *wire.Server {
	t.Helper()
	reg := obs.NewRegistry()
	srv := wire.NewServer(svc, func() wire.Settings { return wire.Settings{Obs: reg} })
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv
}

var testProto = &wire.Protocol{
	Err:       func(f []string) error { return errors.New(strings.Join(f, " ")) },
	Malformed: errors.New("malformed"),
	Broken:    errors.New("broken"),
}

// workers counts the goroutines in a server connection's worker loop, busy
// or waiting for the next exchange, from a goroutine profile.
func workers(t *testing.T) int {
	t.Helper()
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 2); err != nil {
		t.Fatal(err)
	}
	return strings.Count(b.String(), "wire.(*conn).work(")
}

// waitWorkers waits up to 5 s for the worker count to come down to n.
func waitWorkers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for workers(t) > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d workers left, want %d\n%s", workers(t), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkersNumberPeakConcurrency: two callers issuing 1,000 requests on a
// window-32 pipe leave the server as many workers as it once held exchanges
// at the same time — not one per request and not the window — and closing
// the pipe leaves none. An exchange is held from its dispatch until its
// reply has left, so a caller whose next request is dispatched before the
// worker of its last is back from the write has two: usually only one
// caller at a time does (3 workers), when the host is short of cores both
// may (4).
func TestWorkersNumberPeakConcurrency(t *testing.T) {
	before := workers(t)
	l := tcpListener(t)()
	serveTest(t, testService(nil), l)
	cl := &wire.Client{Addr: l.Addr().String(), Proto: testProto, Window: 32, Obs: obs.NewRegistry()}
	const callers, requests = 2, 1000
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests/callers; i++ {
				if err := cl.Do(context.Background(), &wire.Call{Line: "PING"}); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed", n, requests)
	}
	if mode := cl.Mode(); mode != "pipelined" {
		t.Fatalf("client mode %q, want pipelined", mode)
	}
	if n := workers(t) - before; n < 1 || n > 2*callers {
		t.Errorf("server holds %d workers after %d requests from %d callers, want 1 to %d", n, requests, callers, 2*callers)
	}
	cl.Close()
	waitWorkers(t, before)
}

// TestWorkersLeaveWithTheConnection: a client that closes its pipe while
// one request is still executing and other workers wait for the next one
// leaves no worker and no other goroutine behind once that request is done.
func TestWorkersLeaveWithTheConnection(t *testing.T) {
	before := workers(t)
	release := make(chan struct{})
	l := tcpListener(t)()
	srv := serveTest(t, testService(release), l)
	baseline := runtime.NumGoroutine()
	p := dialPeer(t, l.Addr().String())
	if got := p.ask("PIPELINE 8\n"); got != "OK 8\n" {
		t.Fatalf("PIPELINE -> %q", got)
	}
	if _, err := io.WriteString(p.conn, "WAIT tag=1\n"); err != nil {
		t.Fatal(err)
	}
	for tag := 2; tag < 6; tag++ {
		if got := p.ask(fmt.Sprintf("PING tag=%d\n", tag)); got != fmt.Sprintf("T%d OK\n", tag) {
			t.Fatalf("PING tag=%d -> %q", tag, got)
		}
	}
	if n := workers(t) - before; n < 2 {
		t.Fatalf("%d workers with WAIT blocked and PINGs answered, want at least 2", n)
	}
	p.conn.Close()
	close(release)
	waitWorkers(t, before)
	deadline := time.Now().Add(5 * time.Second)
	for wire.Served(srv) > 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d connections, %d goroutines vs %d at start\n%s", wire.Served(srv),
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerBlockedDoesNotStallOthers: a handler waiting on one exchange
// holds its worker only; the pipe's other requests are executed and
// answered meanwhile, and the blocked one is answered when it returns.
func TestWorkerBlockedDoesNotStallOthers(t *testing.T) {
	release := make(chan struct{})
	l := tcpListener(t)()
	serveTest(t, testService(release), l)
	p := dialPeer(t, l.Addr().String())
	if got := p.ask("PIPELINE 4\n"); got != "OK 4\n" {
		t.Fatalf("PIPELINE -> %q", got)
	}
	if _, err := io.WriteString(p.conn, "WAIT tag=1\n"); err != nil {
		t.Fatal(err)
	}
	for tag := 2; tag < 12; tag++ {
		if got := p.ask(fmt.Sprintf("PING tag=%d\n", tag)); got != fmt.Sprintf("T%d OK\n", tag) {
			t.Fatalf("PING tag=%d behind a blocked WAIT -> %q", tag, got)
		}
	}
	close(release)
	if line, err := p.br.ReadString('\n'); err != nil || line != "T1 OK\n" {
		t.Fatalf("WAIT once released -> %q, %v", line, err)
	}
}

// failingListener's connections cut the first write of at least
// bodyMin bytes short after cut bytes and fail it, and count every write
// that is tried after that.
type failingListener struct {
	net.Listener
	late *atomic.Int64
}

const bodyMin, cut = 4096, 1000

func (l failingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: c, late: l.late}, nil
}

type cutConn struct {
	net.Conn
	late   *atomic.Int64
	failed atomic.Bool
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.failed.Load() {
		c.late.Add(1)
		return 0, errors.New("write after failure")
	}
	if len(p) < bodyMin {
		return c.Conn.Write(p)
	}
	c.failed.Store(true)
	n, _ := c.Conn.Write(p[:cut])
	return n, errors.New("connection reset mid-body")
}

// TestReplyWriteFailsMidBody: a reply whose body write fails part way is
// the connection's last. The error sticks, so a reply finished afterwards
// is never written; the tagged connection is torn down, which is how the
// client learns of it; and the pooled body goes back all the same.
func TestReplyWriteFailsMidBody(t *testing.T) {
	release := make(chan struct{})
	late := new(atomic.Int64)
	l := failingListener{tcpListener(t)(), late}
	srv := serveTest(t, testService(release), l)
	before := bufpool.ReadStats()

	p := dialPeer(t, l.Addr().String())
	if got := p.ask("PIPELINE 4\n"); got != "OK 4\n" {
		t.Fatalf("PIPELINE -> %q", got)
	}
	if _, err := io.WriteString(p.conn, "WAIT tag=1\n"); err != nil {
		t.Fatal(err)
	}
	if got := p.ask("BODY 65536 tag=2\n"); got != "T2 OK 65536\n" {
		t.Fatalf("BODY -> %q", got)
	}
	rest, err := io.ReadAll(p.br)
	if len(rest) != cut || (err != nil && !isReset(err)) {
		t.Fatalf("after the status line: %d bytes then %v, want %d then the close", len(rest), err, cut)
	}

	close(release) // WAIT's reply is ready only now, after the failure
	deadline := time.Now().Add(5 * time.Second)
	for wire.Served(srv) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the connection whose reply failed is still served")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d writes tried after the failed one, want 0", n)
	}
	after := bufpool.ReadStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets < 1 || puts < gets {
		t.Errorf("bufpool: %d gets, %d puts during the exchange; want the body back", gets, puts)
	}
}
