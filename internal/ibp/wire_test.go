package ibp

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"lonviz/internal/netsim"
)

// startDepotServer starts a depot server on loopback and returns its
// address and a plain client. set, if any, configures the server before it
// serves: its fields are not to be written once connections may read them.
func startDepotServer(t *testing.T, capacity int64, set ...func(*Server)) (addr string, cl *Client, srv *Server) {
	t.Helper()
	d, err := NewDepot(DepotConfig{Capacity: capacity, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(d)
	for _, f := range set {
		f(srv)
	}
	addr, err = srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, &Client{Addr: addr}, srv
}

func TestWireAllocateStoreLoad(t *testing.T) {
	_, cl, _ := startDepotServer(t, 1<<20)
	caps, err := cl.Allocate(context.Background(), 1000, time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("viewset!"), 100)
	if err := cl.Store(context.Background(), caps.Write, 100, payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Load(context.Background(), caps.Read, 100, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("wire round trip mismatch")
	}
}

func TestWireErrorsTyped(t *testing.T) {
	_, cl, _ := startDepotServer(t, 100)
	if _, err := cl.Allocate(context.Background(), 500, time.Minute, Stable); !errors.Is(err, ErrNoSpace) {
		t.Errorf("over-allocation over wire: %v", err)
	}
	if _, err := cl.Allocate(context.Background(), 10, 2*time.Hour, Stable); !errors.Is(err, ErrDuration) {
		t.Errorf("long lease over wire: %v", err)
	}
	if err := cl.Store(context.Background(), "bogus", 0, []byte("x")); !errors.Is(err, ErrNoCap) {
		t.Errorf("bogus cap over wire: %v", err)
	}
	caps, _ := cl.Allocate(context.Background(), 10, time.Minute, Stable)
	if _, err := cl.Load(context.Background(), caps.Read, 0, 50); !errors.Is(err, ErrRange) {
		t.Errorf("range error over wire: %v", err)
	}
}

func TestWireProbeExtendFree(t *testing.T) {
	_, cl, _ := startDepotServer(t, 1000)
	caps, _ := cl.Allocate(context.Background(), 128, time.Minute, Volatile)
	info, err := cl.Probe(context.Background(), caps.Manage)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 128 || info.Policy != Volatile {
		t.Errorf("probe = %+v", info)
	}
	if time.Until(info.Expires) <= 0 {
		t.Error("probe expiry in the past")
	}
	exp, err := cl.Extend(context.Background(), caps.Manage, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if time.Until(exp) < 25*time.Minute {
		t.Errorf("extend expiry %v", exp)
	}
	if err := cl.Free(context.Background(), caps.Manage); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Probe(context.Background(), caps.Manage); !errors.Is(err, ErrNoCap) {
		t.Errorf("probe after free: %v", err)
	}
}

func TestWireStatus(t *testing.T) {
	_, cl, _ := startDepotServer(t, 5000)
	if _, err := cl.Allocate(context.Background(), 1200, time.Minute, Stable); err != nil {
		t.Fatal(err)
	}
	capacity, used, allocs, err := cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if capacity != 5000 || used != 1200 || allocs != 1 {
		t.Errorf("status = %d %d %d", capacity, used, allocs)
	}
}

func TestThirdPartyCopy(t *testing.T) {
	_, clA, _ := startDepotServer(t, 1<<20) // source
	addrB, clB, _ := startDepotServer(t, 1<<20)

	src, err := clA.Allocate(context.Background(), 256, time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 128)
	if err := clA.Store(context.Background(), src.Write, 0, payload); err != nil {
		t.Fatal(err)
	}
	dst, err := clB.Allocate(context.Background(), 256, time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	// Client asks depot A to push bytes straight to depot B.
	if err := clA.Copy(context.Background(), src.Read, 0, 256, addrB, dst.Write, 0); err != nil {
		t.Fatal(err)
	}
	got, err := clB.Load(context.Background(), dst.Read, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("third-party copy corrupted data")
	}
}

func TestThirdPartyCopyErrors(t *testing.T) {
	addrA, clA, _ := startDepotServer(t, 1024)
	addrB, clB, _ := startDepotServer(t, 1024)
	src, _ := clA.Allocate(context.Background(), 64, time.Minute, Stable)
	dst, _ := clB.Allocate(context.Background(), 64, time.Minute, Stable)
	// Bad source cap.
	if err := clA.Copy(context.Background(), "bogus", 0, 64, addrB, dst.Write, 0); !errors.Is(err, ErrNoCap) {
		t.Errorf("copy with bogus read cap: %v", err)
	}
	// Bad target cap surfaces the remote error.
	if err := clA.Copy(context.Background(), src.Read, 0, 64, addrB, "bogus", 0); !errors.Is(err, ErrNoCap) {
		t.Errorf("copy with bogus write cap: %v", err)
	}
	// Unreachable target.
	if err := clA.Copy(context.Background(), src.Read, 0, 64, "127.0.0.1:1", dst.Write, 0); err == nil {
		t.Error("copy to dead depot succeeded")
	}
	_ = addrA
}

func TestWireOverShapedLink(t *testing.T) {
	addr, _, _ := startDepotServer(t, 1<<20)
	dialer := netsim.NewDialer(netsim.LinkProfile{Name: "testwan", Latency: 20 * time.Millisecond})
	cl := &Client{Addr: addr, Dialer: dialer}
	start := time.Now()
	caps, err := cl.Allocate(context.Background(), 100, time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("shaped allocate took only %v, want >= 2x20ms", elapsed)
	}
	if err := cl.Store(context.Background(), caps.Write, 0, []byte("over the wan")); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	addr, _, _ := startDepotServer(t, 1024)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("FROBNICATE all the things\n"))
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp := string(buf[:n])
	if !strings.HasPrefix(resp, "ERR PROTO") {
		t.Errorf("response to garbage = %q", resp)
	}
}

func TestServerKeepsConnectionAcrossRequests(t *testing.T) {
	addr, _, _ := startDepotServer(t, 1<<20)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// Two STATUS requests on one connection.
	for i := 0; i < 2; i++ {
		if _, err := conn.Write([]byte("STATUS\n")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 128)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !strings.HasPrefix(string(buf[:n]), "OK ") {
			t.Fatalf("request %d: %q", i, buf[:n])
		}
	}
}

func TestServerClose(t *testing.T) {
	addr, cl, srv := startDepotServer(t, 1024)
	if _, err := cl.Allocate(context.Background(), 10, time.Minute, Stable); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	cl2 := &Client{Addr: addr, Timeout: time.Second}
	if _, err := cl2.Allocate(context.Background(), 10, time.Minute, Stable); err == nil {
		t.Error("allocate after server close succeeded")
	}
}

func TestConcurrentWireClients(t *testing.T) {
	addr, _, _ := startDepotServer(t, 1<<22)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			cl := &Client{Addr: addr}
			caps, err := cl.Allocate(context.Background(), 4096, time.Minute, Stable)
			if err != nil {
				done <- err
				return
			}
			data := bytes.Repeat([]byte{byte(g + 1)}, 4096)
			if err := cl.Store(context.Background(), caps.Write, 0, data); err != nil {
				done <- err
				return
			}
			got, err := cl.Load(context.Background(), caps.Read, 0, 4096)
			if err != nil {
				done <- err
				return
			}
			if !bytes.Equal(got, data) {
				done <- errors.New("concurrent wire data bleed")
				return
			}
			done <- nil
		}(g)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestWireExtendErrorPaths exercises the lease-maintenance failure modes a
// steward must distinguish over the wire: a lease that already ran out, a
// renewal beyond the depot's maximum, and a capability the depot never
// issued.
func TestWireExtendErrorPaths(t *testing.T) {
	clk := newFakeClock()
	d, err := NewDepot(DepotConfig{Capacity: 1 << 16, MaxLease: time.Hour, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := &Client{Addr: addr}

	caps, err := cl.Allocate(context.Background(), 64, time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	// Over-max renewal is refused while the allocation is still alive.
	if _, err := cl.Extend(context.Background(), caps.Manage, 2*time.Hour); !errors.Is(err, ErrDuration) {
		t.Errorf("over-max extend: %v", err)
	}
	// Probe and Extend on an expired allocation: first touch reports the
	// expiry, and the allocation is then gone for good.
	clk.Advance(2 * time.Minute)
	if _, err := cl.Extend(context.Background(), caps.Manage, time.Minute); !errors.Is(err, ErrExpired) {
		t.Errorf("extend after expiry: %v", err)
	}
	if _, err := cl.Probe(context.Background(), caps.Manage); !errors.Is(err, ErrNoCap) {
		t.Errorf("probe after expired extend: %v", err)
	}
	// A capability the depot never issued.
	if _, err := cl.Extend(context.Background(), "bogus-cap", time.Minute); !errors.Is(err, ErrNoCap) {
		t.Errorf("bogus manage cap: %v", err)
	}
	if _, err := cl.Probe(context.Background(), "bogus-cap"); !errors.Is(err, ErrNoCap) {
		t.Errorf("bogus probe cap: %v", err)
	}
}

// fakeDepotServer answers every request on a real TCP listener with a
// canned response line, for driving the client's response parser through
// shapes no honest depot produces.
func fakeDepotServer(t *testing.T, response string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 256)
				c.Read(buf)
				c.Write([]byte(response))
			}(c)
		}
	}()
	return l.Addr().String()
}

func TestWireMalformedResponses(t *testing.T) {
	cases := []struct {
		name       string
		response   string
		skipExtend bool // "OK 1" is a well-formed Extend reply but a short Probe one
	}{
		{name: "missing fields", response: "OK\n"},
		{name: "non-numeric expiry", response: "OK abc\n"},
		{name: "unknown status word", response: "BOGUS 1 2 3\n"},
		{name: "err without code", response: "ERR\n"},
		{name: "probe short field count", response: "OK 1\n", skipExtend: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := &Client{Addr: fakeDepotServer(t, tc.response), Timeout: 2 * time.Second}
			if !tc.skipExtend {
				if _, err := cl.Extend(context.Background(), "cap", time.Minute); !errors.Is(err, ErrProto) {
					t.Errorf("Extend on %q: %v", tc.response, err)
				}
			}
			if _, err := cl.Probe(context.Background(), "cap"); !errors.Is(err, ErrProto) {
				t.Errorf("Probe on %q: %v", tc.response, err)
			}
		})
	}
}
