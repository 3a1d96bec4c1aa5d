package dvs

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingDialer counts the connections a Client opens.
type countingDialer struct{ dials atomic.Int64 }

func (d *countingDialer) Dial(addr string) (net.Conn, error) {
	d.dials.Add(1)
	return net.Dial("tcp", addr)
}

// scriptedDVS is a server whose replies the test dictates: reply maps one
// request line to the bytes to answer with, and "" leaves the request
// unanswered for as long as the client keeps the connection.
func scriptedDVS(t *testing.T, reply func(line string) string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if _, err := c.Write([]byte(reply(strings.TrimSpace(line)))); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return l.Addr().String()
}

func key(viewSet string) Key { return Key{Dataset: "d", ViewSet: viewSet} }

func TestClientSequentialGetsDialOnce(t *testing.T) {
	s, cl := startDVS(t, "")
	d := &countingDialer{}
	cl.Dialer = d
	if err := cl.Put(context.Background(), key("r0c0"), []byte("<exnode/>")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		reps, err := cl.Get(context.Background(), key("r0c0"))
		if err != nil || len(reps) != 1 {
			t.Fatalf("get %d: %d replicas, %v", i, len(reps), err)
		}
	}
	if n := d.dials.Load(); n != 1 {
		t.Errorf("a PUT and 50 sequential GETs dialed %d times, want 1", n)
	}
	if served := s.loop.Conns(); served != 1 {
		t.Errorf("server holds %d connections, want 1", served)
	}
}

// TestClientConcurrentGetsStayInPool: the scripted server answers nothing
// until maxConns requests are on the wire at once, so the pool is shown
// both to open that many connections and, with 8 callers, no more.
func TestClientConcurrentGetsStayInPool(t *testing.T) {
	var arrived atomic.Int64
	full := make(chan struct{})
	addr := scriptedDVS(t, func(string) string {
		if arrived.Add(1) == maxConns {
			close(full)
		}
		<-full
		return "MISS\n"
	})
	d := &countingDialer{}
	cl := &Client{Addr: addr, Dialer: d}
	defer cl.CloseIdle()
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := cl.Get(context.Background(), key("r0c0"))
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; !errors.Is(err, ErrMiss) {
			t.Errorf("concurrent get: %v, want ErrMiss", err)
		}
	}
	if n := d.dials.Load(); n != maxConns {
		t.Errorf("8 concurrent GETs dialed %d times, want the pool bound %d", n, maxConns)
	}
}

// restartDVS closes old and starts an empty server on the same address.
func restartDVS(t *testing.T, old *Server, addr string) *Server {
	t.Helper()
	old.Close()
	s := NewServer("")
	if _, err := s.ListenAndServe(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestClientServerRestart(t *testing.T) {
	s1, cl := startDVS(t, "")
	d := &countingDialer{}
	cl.Dialer = d
	ctx := context.Background()
	k := key("r0c0")
	if err := cl.Put(ctx, k, []byte("<one/>")); err != nil {
		t.Fatal(err)
	}

	// GET is idempotent: the dead pooled connection costs one silent redial.
	s2 := restartDVS(t, s1, cl.Addr)
	if err := s2.Put(k, []byte("<two/>")); err != nil {
		t.Fatal(err)
	}
	reps, err := cl.Get(ctx, k)
	if err != nil || len(reps) != 1 || string(reps[0]) != "<two/>" {
		t.Fatalf("get after restart: %q, %v", reps, err)
	}
	if n := d.dials.Load(); n != 2 {
		t.Errorf("dials after one restart = %d, want 2", n)
	}

	// PUT appends, so a request that may have reached the server is never
	// repeated: the caller sees the error and the new server no replica.
	s3 := restartDVS(t, s2, cl.Addr)
	if err := cl.Put(ctx, k, []byte("<three/>")); err == nil {
		t.Error("PUT on a connection the server dropped reported success")
	}
	if n := d.dials.Load(); n != 2 {
		t.Errorf("a failed PUT redialed: %d dials, want 2", n)
	}
	if reps := s3.lookupLocal(k); len(reps) != 0 {
		t.Errorf("failed PUT left %d replicas", len(reps))
	}
	// The caller's own retry goes out on a fresh connection, once.
	if err := cl.Put(ctx, k, []byte("<three/>")); err != nil {
		t.Fatal(err)
	}
	if reps := s3.lookupLocal(k); len(reps) != 1 {
		t.Errorf("replicas after the caller's retry = %d, want 1", len(reps))
	}
}

func TestClientKeepsOrDropsConnectionByReply(t *testing.T) {
	addr := scriptedDVS(t, func(line string) string {
		switch {
		case strings.Contains(line, "busy"):
			return "ERR BUSY queue_full\n" // and, unlike the real server, stays connected
		case strings.Contains(line, "junk"):
			return "WAT\n"
		}
		return "MISS\n"
	})
	d := &countingDialer{}
	cl := &Client{Addr: addr, Dialer: d}
	defer cl.CloseIdle()
	ctx := context.Background()
	get := func(viewSet string, want error, wantDials int64) {
		t.Helper()
		if _, err := cl.Get(ctx, key(viewSet)); !errors.Is(err, want) {
			t.Errorf("get %s: %v, want %v", viewSet, err, want)
		}
		if n := d.dials.Load(); n != wantDials {
			t.Errorf("dials after get %s = %d, want %d", viewSet, n, wantDials)
		}
	}
	get("miss", ErrMiss, 1)
	get("miss", ErrMiss, 1) // a MISS is an answer: the connection stays
	get("busy", ErrBusy, 1)
	get("miss", ErrMiss, 2) // the shed connection was dropped
	// A malformed reply on a reused connection looks like a stale one, so
	// the GET goes out once more on a fresh dial before the error surfaces.
	get("junk", ErrProto, 3)
	get("miss", ErrMiss, 4) // and that one was dropped too
}

func TestClientDeadlineIsPerRequest(t *testing.T) {
	const slow = 150 * time.Millisecond
	addr := scriptedDVS(t, func(line string) string {
		if strings.Contains(line, "slow") {
			time.Sleep(slow)
		}
		return "MISS\n"
	})
	d := &countingDialer{}
	cl := &Client{Addr: addr, Dialer: d}
	defer cl.CloseIdle()

	// A request that beats its deadline leaves none behind: the next one
	// on the same connection may take longer than that deadline allowed.
	short, cancel := context.WithTimeout(context.Background(), slow/3)
	defer cancel()
	if _, err := cl.Get(short, key("fast")); !errors.Is(err, ErrMiss) {
		t.Fatalf("fast get: %v", err)
	}
	if _, err := cl.Get(context.Background(), key("slow")); !errors.Is(err, ErrMiss) {
		t.Fatalf("slow get after a short deadline: %v", err)
	}
	if n := d.dials.Load(); n != 1 {
		t.Errorf("dials = %d, want 1", n)
	}

	// A request that misses its deadline fails alone.
	expired, cancel2 := context.WithTimeout(context.Background(), slow/3)
	defer cancel2()
	if _, err := cl.Get(expired, key("slow")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired get: %v, want DeadlineExceeded", err)
	}
	if n := d.dials.Load(); n != 1 {
		t.Errorf("dials after an expired get = %d, want 1 (a timeout is not a stale connection)", n)
	}
	if _, err := cl.Get(context.Background(), key("fast")); !errors.Is(err, ErrMiss) {
		t.Fatalf("get after an expired one: %v", err)
	}

	// The same when only Timeout bounds the request: the timeout surfaces
	// without a redial, and only the connection it happened on is lost.
	td := &countingDialer{}
	tcl := &Client{Addr: addr, Dialer: td, Timeout: slow / 3}
	defer tcl.CloseIdle()
	if _, err := tcl.Get(context.Background(), key("fast")); !errors.Is(err, ErrMiss) {
		t.Fatalf("fast get under Timeout: %v", err)
	}
	if _, err := tcl.Get(context.Background(), key("slow")); err == nil || errors.Is(err, ErrMiss) {
		t.Fatalf("slow get under Timeout: %v, want a timeout", err)
	}
	if n := td.dials.Load(); n != 1 {
		t.Errorf("dials after a timed-out get = %d, want 1", n)
	}
	if _, err := tcl.Get(context.Background(), key("fast")); !errors.Is(err, ErrMiss) {
		t.Fatalf("get after a timed-out one: %v", err)
	}
	if n := td.dials.Load(); n != 2 {
		t.Errorf("dials = %d, want 2", n)
	}
}

func TestClientCancelReturnsPromptly(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	addr := scriptedDVS(t, func(line string) string {
		if strings.Contains(line, "hang") {
			<-hang
		}
		return "MISS\n"
	})
	cl := &Client{Addr: addr}
	defer cl.CloseIdle()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Get(ctx, key("hang"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the server; cancelling earlier is also correct
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled get: %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > time.Second {
			t.Errorf("cancelled get took %v to return", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled get never returned (the client's Timeout is 30s)")
	}
	if _, err := cl.Get(context.Background(), key("next")); !errors.Is(err, ErrMiss) {
		t.Errorf("get after a cancelled one: %v", err)
	}
}

// TestServerForwardsOverOneParentConnection: a leaf that misses locally
// asks its parent over one persistent client, not a new one per query.
func TestServerForwardsOverOneParentConnection(t *testing.T) {
	root, rootCl := startDVS(t, "")
	leaf, leafCl := startDVS(t, rootCl.Addr)
	d := &countingDialer{}
	leaf.Dialer = d
	for i := 0; i < 20; i++ {
		k := key("r0c" + string(rune('a'+i)))
		if err := root.Put(k, []byte("<exnode/>")); err != nil {
			t.Fatal(err)
		}
		if _, err := leafCl.Get(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.dials.Load(); n != 1 {
		t.Errorf("20 forwarded queries dialed the parent %d times, want 1", n)
	}
}

// spyDialer reports its first dial and the Close of that connection.
type spyDialer struct {
	dialed, closed chan struct{}
}

type spyConn struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *spyConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (d *spyDialer) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	close(d.dialed) // a second dial would panic: the test expects one
	return &spyConn{Conn: c, closed: d.closed}, nil
}

// TestServerCloseDuringForwardedQuery: a forwarded query that outlives
// Close must not leave its parent connection pooled with nobody to close it.
func TestServerCloseDuringForwardedQuery(t *testing.T) {
	answer := make(chan struct{})
	parentAddr := scriptedDVS(t, func(string) string { <-answer; return "MISS\n" })
	var once sync.Once
	letAnswer := func() { once.Do(func() { close(answer) }) }
	t.Cleanup(letAnswer) // before scriptedDVS's cleanup waits for its handlers

	leaf := NewServer(parentAddr)
	spy := &spyDialer{dialed: make(chan struct{}), closed: make(chan struct{})}
	leaf.Dialer = spy
	leafAddr, err := leaf.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{Addr: leafAddr}
	defer cl.CloseIdle()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Get(context.Background(), key("r0c0"))
		done <- err
	}()
	<-spy.dialed // the query is on its way to the parent
	leaf.Close()
	if err := <-done; err == nil {
		t.Error("get through a closed leaf succeeded")
	}
	letAnswer()
	select {
	case <-spy.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the parent connection of a query that outlived Close was never closed")
	}
}

func TestNoGoroutineLeftAfterClose(t *testing.T) {
	baseline := runtime.NumGoroutine()
	root := NewServer("")
	rootAddr, err := root.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	leaf := NewServer(rootAddr)
	leafAddr, err := leaf.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Put(key("r0c0"), []byte("<exnode/>")); err != nil {
		t.Fatal(err)
	}
	cl := &Client{Addr: leafAddr}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Get(context.Background(), key("r0c0")); err != nil {
				t.Error(err)
			}
			if _, err := cl.Get(context.Background(), key("none")); !errors.Is(err, ErrMiss) {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	leaf.Close()
	root.Close()
	cl.CloseIdle()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
