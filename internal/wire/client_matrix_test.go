package wire_test

// One behaviour matrix over the three ways a caller holds connections: for
// one call only ("unkept": an ibp.Client made and closed around the call,
// as edge.Warm does, and agent.RequestRemote), one upgraded connection
// (ibp.Pipe, and ibp.PipePool which adds fallback and redial), and a few
// untagged kept ones (dvs.Client, agent.RemoteSource). Each row states a rule of the transport
// and runs it on every configuration it applies to, through exported
// constructors against a scripted peer.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
)

var matrixKey = dvs.Key{Dataset: "ds", ViewSet: "r01c02"}

var configurationNames = []string{"unkept", "unkept-render", "tagged", "kept", "kept-agent"}

// configurations maps a name to one read request (a 5-byte LOAD, a RENDER, a
// GET, a GETVS) sent the configuration's way to the peer at addr. The returned
// close releases whatever the configuration keeps.
func configurations(addr string, dialer ibp.Dialer) map[string]struct {
	read  func(ctx context.Context) error
	close func()
} {
	type cfg = struct {
		read  func(ctx context.Context) error
		close func()
	}
	pool := &ibp.PipePool{Dialer: dialer, Obs: obs.NewRegistry()}
	kept := &dvs.Client{Addr: addr, Dialer: dialer}
	remote := &agent.RemoteSource{Addr: addr, Dataset: "ds", Dialer: dialer}
	return map[string]cfg{
		"unkept": {
			read: func(ctx context.Context) error {
				cl := &ibp.Client{Addr: addr, Dialer: dialer, Obs: obs.NewRegistry()}
				defer cl.Close()
				return cl.LoadInto(ctx, "rcap", 0, make([]byte, 5))
			},
			close: func() {},
		},
		"unkept-render": {
			read: func(ctx context.Context) error {
				_, err := agent.RequestRemote(ctx, dialer, addr, "ds", "r01c02")
				return err
			},
			close: func() {},
		},
		"tagged": {
			read: func(ctx context.Context) error {
				return pool.LoadInto(ctx, addr, "rcap", 0, make([]byte, 5))
			},
			close: func() { pool.Close() },
		},
		"kept": {
			read:  func(ctx context.Context) error { _, err := kept.Get(ctx, matrixKey); return err },
			close: kept.CloseIdle,
		},
		"kept-agent": {
			read: func(ctx context.Context) error {
				_, _, err := remote.GetViewSet(ctx, lightfield.ViewSetID{R: 1, C: 2})
				return err
			},
			close: func() { closeIdle(remote) },
		},
	}
}

// closeIdle calls v's CloseIdle when it has one.
func closeIdle(v any) {
	if c, ok := v.(interface{ CloseIdle() }); ok {
		c.CloseIdle()
	}
}

// rescript changes p's script under p.mu. The peer holds p.mu to record a
// request and to hand out a reply, and records a connection's PIPELINE
// before it reads refuse, mute or respond, so a change made before the
// client dials is one the peer sees.
func (p *scriptedPeer) rescript(f func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f()
}

// waitRequests blocks until the peer has seen n requests.
func waitRequests(t *testing.T, p *scriptedPeer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(p.requests()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("peer saw %d requests, want %d: %q", len(p.requests()), n, p.requests())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientCancelReturnsCtxErr: a request the peer never answers returns
// the caller's ctx.Err() as soon as the caller cancels.
func TestClientCancelReturnsCtxErr(t *testing.T) {
	for _, name := range configurationNames {
		t.Run(name, func(t *testing.T) {
			peer := startScriptedPeer(t, stall)
			cfg := configurations(peer.addr, nil)[name]
			defer cfg.close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- cfg.read(ctx) }()
			waitRequests(t, peer, 1+strings.Count(name, "tagged")) // the handshake counts
			start := time.Now()
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled request: %v, want context.Canceled", err)
				}
				if waited := time.Since(start); waited > time.Second {
					t.Errorf("cancelled request took %v to return", waited)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled request never returned")
			}
		})
	}
}

// TestClientCancelledLoadNeverWritesDst: once a cancelled tagged LOAD has
// returned, its destination belongs to the caller again. The reply that
// arrives later is read off the wire and dropped, and the pipe goes on.
func TestClientCancelledLoadNeverWritesDst(t *testing.T) {
	peer := startScriptedPeer(t)
	peer.rescript(func() {
		peer.respond = func(req string) string {
			if strings.Contains(req, "tag=1") {
				return "" // answered together with the next one
			}
			return "T1 OK 5\nhelloT2 OK 5\nworld"
		}
	})
	p, err := ibp.DialPipe(context.Background(), peer.addr, nil, 8, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	first := make([]byte, 5)
	done := make(chan error, 1)
	go func() { done <- p.Load(ctx, "rcap", 0, first) }()
	waitRequests(t, peer, 2)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled load: %v", err)
	}
	copy(first, "mine!") // races with the reader if it still holds first
	second := make([]byte, 5)
	if err := p.Load(context.Background(), "rcap", 0, second); err != nil {
		t.Fatalf("load after a cancelled one: %v", err)
	}
	if string(first) != "mine!" || string(second) != "world" {
		t.Errorf("destinations = %q, %q; want mine!, world", first, second)
	}
}

// TestClientNeverReusesUnreadReply: bytes left over after a reply mean the
// connection is out of step; the next request goes out on a new one.
func TestClientNeverReusesUnreadReply(t *testing.T) {
	t.Run("kept", func(t *testing.T) {
		peer := startScriptedPeer(t, "MISS\nleftover", "MISS\n")
		cl := &dvs.Client{Addr: peer.addr}
		defer cl.CloseIdle()
		for i := 0; i < 2; i++ {
			if _, err := cl.Get(context.Background(), matrixKey); !errors.Is(err, dvs.ErrMiss) {
				t.Fatalf("get %d: %v", i, err)
			}
		}
		if n := peer.accepted(); n != 2 {
			t.Errorf("peer accepted %d connections, want 2", n)
		}
	})
	t.Run("tagged", func(t *testing.T) {
		// Whether the second load is sent before or after the reader has
		// met the leftover, it ends up answered on a second connection.
		peer := startScriptedPeer(t, "OK 5\nhelloleftover\n", "OK 5\nworld", "OK 5\nworld")
		pool := &ibp.PipePool{Obs: obs.NewRegistry()}
		defer pool.Close()
		for i := 0; i < 2; i++ {
			dst := make([]byte, 5)
			if err := pool.LoadInto(context.Background(), peer.addr, "rcap", 0, dst); err != nil {
				t.Fatalf("load %d: %v", i, err)
			}
		}
		if n := peer.accepted(); n != 2 {
			t.Errorf("peer accepted %d connections, want 2", n)
		}
	})
}

// failingDialer hands out connections one of whose writes fails, writing
// nothing, once broken is set: the first, or the one after the next pass
// writes. A request is one write on a TCP socket but a write per part (line,
// payload) on a wrapped connection like these.
type failingDialer struct {
	broken atomic.Bool
	pass   atomic.Int32
}

type failingConn struct {
	net.Conn
	d *failingDialer
}

func (d *failingDialer) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &failingConn{Conn: c, d: d}, nil
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.d.broken.Load() && c.d.pass.Add(-1) < 0 && c.d.broken.CompareAndSwap(true, false) {
		return 0, errors.New("write refused")
	}
	return c.Conn.Write(p)
}

// TestClientRepeatsOnlyWhatIsSafe: a request is sent a second time only when
// the connection it failed on had served a request before (the peer may
// simply have gone away since), and only when repeating it is harmless: the
// verb is idempotent or not a byte of it was written.
func TestClientRepeatsOnlyWhatIsSafe(t *testing.T) {
	ctx := context.Background()
	count := func(p *scriptedPeer, verb string) (n int) {
		for _, r := range p.requests() {
			if strings.HasPrefix(r, verb) {
				n++
			}
		}
		return n
	}
	t.Run("kept/idempotent-on-reused", func(t *testing.T) {
		peer := startScriptedPeer(t, "MISS\n", hangup, "MISS\n")
		cl := &dvs.Client{Addr: peer.addr}
		defer cl.CloseIdle()
		for i := 0; i < 2; i++ {
			if _, err := cl.Get(ctx, matrixKey); !errors.Is(err, dvs.ErrMiss) {
				t.Fatalf("get %d: %v", i, err)
			}
		}
		if n, c := count(peer, "GET"), peer.accepted(); n != 3 || c != 2 {
			t.Errorf("peer saw %d GETs on %d connections, want 3 on 2", n, c)
		}
	})
	t.Run("kept/never-on-fresh", func(t *testing.T) {
		peer := startScriptedPeer(t, hangup, "MISS\n")
		cl := &dvs.Client{Addr: peer.addr}
		defer cl.CloseIdle()
		if _, err := cl.Get(ctx, matrixKey); !errors.Is(err, dvs.ErrProto) {
			t.Fatalf("get on a connection that hangs up: %v, want ErrProto", err)
		}
		if n := count(peer, "GET"); n != 1 {
			t.Errorf("peer saw %d GETs, want 1", n)
		}
	})
	t.Run("kept/PUT-never", func(t *testing.T) {
		peer := startScriptedPeer(t, "MISS\n", hangup, "OK\n")
		cl := &dvs.Client{Addr: peer.addr}
		defer cl.CloseIdle()
		if _, err := cl.Get(ctx, matrixKey); !errors.Is(err, dvs.ErrMiss) {
			t.Fatal(err)
		}
		if err := cl.Put(ctx, matrixKey, []byte("<exnode/>")); err == nil {
			t.Error("PUT on a connection the peer dropped reported success")
		}
		if n, c := count(peer, "PUT"), peer.accepted(); n != 1 || c != 1 {
			t.Errorf("peer saw %d PUTs on %d connections, want 1 on 1", n, c)
		}
	})
	t.Run("kept/PUT-unwritten", func(t *testing.T) {
		peer := startScriptedPeer(t, "MISS\n", "OK\n")
		d := &failingDialer{}
		cl := &dvs.Client{Addr: peer.addr, Dialer: d}
		defer cl.CloseIdle()
		if _, err := cl.Get(ctx, matrixKey); !errors.Is(err, dvs.ErrMiss) {
			t.Fatal(err)
		}
		d.broken.Store(true)
		if err := cl.Put(ctx, matrixKey, []byte("<exnode/>")); err != nil {
			t.Errorf("PUT whose first write moved nothing: %v, want one retry on a fresh connection", err)
		}
		if n, c := count(peer, "PUT"), peer.accepted(); n != 1 || c != 2 {
			t.Errorf("peer saw %d PUTs on %d connections, want 1 on 2", n, c)
		}
	})
	t.Run("kept/PUT-half-written", func(t *testing.T) {
		peer := startScriptedPeer(t, "MISS\n", "OK\n")
		d := &failingDialer{}
		cl := &dvs.Client{Addr: peer.addr, Dialer: d}
		defer cl.CloseIdle()
		if _, err := cl.Get(ctx, matrixKey); !errors.Is(err, dvs.ErrMiss) {
			t.Fatal(err)
		}
		d.pass.Store(1) // the request line leaves, the payload write fails
		d.broken.Store(true)
		if err := cl.Put(ctx, matrixKey, []byte("<exnode/>")); err == nil {
			t.Error("PUT whose payload write failed reported success")
		}
		// The peer never read a whole PUT, and no second connection came.
		if n, c := count(peer, "PUT"), peer.accepted(); n != 0 || c != 1 {
			t.Errorf("peer saw %d PUTs on %d connections, want 0 on 1", n, c)
		}
	})
	t.Run("tagged/LOAD-on-reused", func(t *testing.T) {
		peer := startScriptedPeer(t, "OK 5\nhello", hangup, "OK 5\nworld")
		pool := &ibp.PipePool{Obs: obs.NewRegistry()}
		defer pool.Close()
		for i, want := range []string{"hello", "world"} {
			dst := make([]byte, 5)
			if err := pool.LoadInto(ctx, peer.addr, "rcap", 0, dst); err != nil || string(dst) != want {
				t.Fatalf("load %d: %q, %v", i, dst, err)
			}
		}
		if n, c := count(peer, "LOAD"), peer.accepted(); n != 3 || c != 2 {
			t.Errorf("peer saw %d LOADs on %d connections, want 3 on 2", n, c)
		}
	})
	t.Run("unkept/never", func(t *testing.T) {
		peer := startScriptedPeer(t, hangup, "OK 5\nhello")
		cl := &ibp.Client{Addr: peer.addr, Obs: obs.NewRegistry()}
		defer cl.Close()
		if err := cl.LoadInto(ctx, "rcap", 0, make([]byte, 5)); !errors.Is(err, ibp.ErrProto) {
			t.Fatalf("load on a connection that hangs up: %v, want ErrProto", err)
		}
		if n := count(peer, "LOAD"); n != 1 {
			t.Errorf("peer saw %d LOADs, want 1", n)
		}
	})
}

// TestClientRemembersPipelineRefusal: a depot that answers PIPELINE with an
// error is asked once; every later request goes untagged on a kept
// connection.
func TestClientRemembersPipelineRefusal(t *testing.T) {
	peer := startScriptedPeer(t, "OK 5\nhello", "OK 5\nhello", "OK 5\nhello")
	peer.rescript(func() { peer.refuse = true })
	reg := obs.NewRegistry()
	pool := &ibp.PipePool{Obs: reg}
	defer pool.Close()
	for i := 0; i < 3; i++ {
		dst := make([]byte, 5)
		if err := pool.LoadInto(context.Background(), peer.addr, "rcap", 0, dst); err != nil || string(dst) != "hello" {
			t.Fatalf("load %d after a refusal: %q, %v", i, dst, err)
		}
	}
	want := "PIPELINE 32\n|LOAD rcap 0 5\n|LOAD rcap 0 5\n|LOAD rcap 0 5\n"
	if got := strings.Join(peer.requests(), "|"); got != want {
		t.Errorf("peer saw %q, want %q", got, want)
	}
	if n := peer.accepted(); n != 2 {
		t.Errorf("peer accepted %d connections, want 2 (the handshake and one kept for the loads)", n)
	}
	if pool.Mode(peer.addr) != "serial" {
		t.Errorf("pool mode = %q, want serial", pool.Mode(peer.addr))
	}
	if got := reg.Counter(obs.MIBPPipeFallbacks).Value(); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
}

// grantCancelDialer cancels a context the moment a connection hands the
// client a PIPELINE grant: the cancellation lands after the reply is read and
// before the handshake is over.
type grantCancelDialer struct {
	cancel atomic.Pointer[context.CancelFunc]
}

type grantCancelConn struct {
	net.Conn
	d *grantCancelDialer
}

func (d *grantCancelDialer) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &grantCancelConn{Conn: c, d: d}, nil
}

func (c *grantCancelConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if cancel := c.d.cancel.Load(); cancel != nil && strings.HasPrefix(string(p[:n]), "OK 32\n") {
		c.d.cancel.Store(nil)
		(*cancel)()
	}
	return n, err
}

// TestClientCancelRacingGrantIsNotARefusal: the handshaking caller's context
// firing as the grant arrives fails that caller only. The depot said yes, so
// nothing is remembered and the next caller is upgraded.
func TestClientCancelRacingGrantIsNotARefusal(t *testing.T) {
	peer := startScriptedPeer(t, "OK 5\nhello", "OK 5\nhello")
	reg, dialer := obs.NewRegistry(), &grantCancelDialer{}
	pool := &ibp.PipePool{Dialer: dialer, Obs: reg}
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dialer.cancel.Store(&cancel)
	// Whether this load still gets through is the implementation's business.
	if err := pool.LoadInto(ctx, peer.addr, "rcap", 0, make([]byte, 5)); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("load cancelled as the grant arrived: %v, want nil or context.Canceled", err)
	}
	if mode := pool.Mode(peer.addr); mode == "serial" {
		t.Error("a cancelled handshake that was granted left the pool in serial mode")
	}
	dst := make([]byte, 5)
	if err := pool.LoadInto(context.Background(), peer.addr, "rcap", 0, dst); err != nil || string(dst) != "hello" {
		t.Fatalf("load after the cancelled handshake: %q, %v", dst, err)
	}
	if mode := pool.Mode(peer.addr); mode != "pipelined" {
		t.Errorf("pool mode = %q, want pipelined", mode)
	}
	if got := reg.Counter(obs.MIBPPipeFallbacks).Value(); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}
}

// TestClientCloseLeavesNoGoroutine: after requests that succeeded, failed and
// were cancelled, closing what a configuration keeps leaves nothing running.
func TestClientCloseLeavesNoGoroutine(t *testing.T) {
	for _, name := range configurationNames {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ok := map[string]string{"kept": "MISS\n", "kept-agent": "OK hit 5\nframe", "unkept-render": "OK 5\n<ex/>"}[name]
			if ok == "" {
				ok = "OK 5\nhello"
			}
			peer := startScriptedPeer(t, ok, ok, "ERR BUSY try later\n", ok, stall)
			cfg := configurations(peer.addr, nil)[name]
			for i := 0; i < 4; i++ {
				_ = cfg.read(context.Background()) // the third is refused
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			if err := cfg.read(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("stalled request: %v, want DeadlineExceeded", err)
			}
			cancel()
			cfg.close()
			peer.stop()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("goroutine leak: %d now vs %d at start\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestClientHandshakeWaitHonoursCtx: a caller that finds the connection to
// its depot still being established waits for it no longer than its own
// context allows, whatever the caller doing the handshake has to spare.
func TestClientHandshakeWaitHonoursCtx(t *testing.T) {
	peer := startScriptedPeer(t)
	peer.rescript(func() { peer.mute = true })
	pool := &ibp.PipePool{Obs: obs.NewRegistry()}
	defer pool.Close()
	ctxA, cancelA := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelA()
	doneA := make(chan error, 1)
	go func() { doneA <- pool.LoadInto(ctxA, peer.addr, "rcap", 0, make([]byte, 5)) }()
	waitRequests(t, peer, 1) // A is in the handshake
	ctxB, cancelB := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelB()
	start := time.Now()
	err := pool.LoadInto(ctxB, peer.addr, "rcap", 0, make([]byte, 5))
	if waited := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || waited > 200*time.Millisecond {
		t.Errorf("caller with 50ms to spare got %v after %v, want DeadlineExceeded within 200ms", err, waited)
	}
	cancelA()
	if err := <-doneA; err == nil {
		t.Error("a load through a handshake nobody answered succeeded")
	}
}

// meteredDialer counts the bytes its connections hand to the client.
type meteredDialer struct{ read atomic.Int64 }

type meteredConn struct {
	net.Conn
	d *meteredDialer
}

func (d *meteredDialer) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, d: d}, nil
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.d.read.Add(int64(n))
	return n, err
}

// TestClientReplyLineIsBounded: a peer that streams bytes with no newline
// where a reply line belongs fails the request as a protocol error once the
// line cap holds no newline; the client does not grow with the stream.
func TestClientReplyLineIsBounded(t *testing.T) {
	flood := strings.Repeat("x", 1<<20)
	for _, name := range append([]string{"kept/size-line"}, configurationNames...) {
		t.Run(name, func(t *testing.T) {
			peer := startScriptedPeer(t, flood, flood)
			d := &meteredDialer{}
			cfgName, _, sizeLine := strings.Cut(name, "/")
			if sizeLine {
				peer.rescript(func() { peer.replies[0] = "OK 1\n" + flood })
			}
			cfg := configurations(peer.addr, d)[cfgName]
			defer cfg.close()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			err := cfg.read(ctx)
			if err == nil || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
				t.Errorf("request answered by a flood: %v, want a prompt protocol error", err)
			}
			for _, typed := range []struct {
				cfg string
				err error
			}{{"unkept", ibp.ErrProto}, {"tagged", ibp.ErrPipeBroken}, {"kept", dvs.ErrProto}} {
				if cfgName == typed.cfg && !errors.Is(err, typed.err) {
					t.Errorf("error = %v, want %v", err, typed.err)
				}
			}
			// One read may bring in a whole connection buffer before the
			// cap is checked (two, with a handshake reply each, would be a
			// pool that redials once).
			if n := d.read.Load(); n > 2*64*1024+64 {
				t.Errorf("client read %d bytes of a line that cannot end, want at most two buffers", n)
			}
		})
	}
}

// TestRemoteSourceKeepsItsConnection: sequential requests of one
// RemoteSource, cursor moves included, share one connection.
func TestRemoteSourceKeepsItsConnection(t *testing.T) {
	peer := startScriptedPeer(t, "OK wan 5\nframe", "OK\n", "OK hit 5\nframe")
	src := &agent.RemoteSource{Addr: peer.addr, Dataset: "ds"}
	defer closeIdle(src)
	id := lightfield.ViewSetID{R: 1, C: 2}
	if _, _, err := src.GetViewSet(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	src.OnUserMove(geom.Spherical{Theta: 0.5, Phi: 1.25})
	if _, rep, err := src.GetViewSet(context.Background(), id); err != nil || rep.Class != agent.AccessHit {
		t.Fatalf("second get: %+v, %v", rep, err)
	}
	if n := peer.accepted(); n != 1 {
		t.Errorf("two GETVS and a MOVE used %d connections, want 1", n)
	}
}
