package ibp

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"lonviz/internal/netsim"
)

// TestEveryVerbDialsOnce: rounds of every verb through one Client — its
// own, a PipePool's, and a PipePool's against a depot that refuses
// PIPELINE — reach the depot over the connection the Client kept. Only the
// refused handshake costs a connection of its own.
func TestEveryVerbDialsOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		refuse bool
		pooled bool
		dials  int
	}{
		{"client", false, false, 1},
		{"pool", false, true, 1},
		{"pool-refused", true, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, _, _ := startDepotServer(t, 1<<20, func(s *Server) {
				if tc.refuse {
					s.PipelineWindow = -1
				}
			})
			targetAddr, target, _ := startDepotServer(t, 1<<20)
			fd := netsim.NewFaultDialer(nil, 1)
			cl := &Client{Addr: addr, Dialer: fd}
			if tc.pooled {
				pool := &PipePool{Dialer: fd}
				defer pool.Close()
				cl = pool.Client(addr)
			} else {
				defer cl.Close()
			}
			ctx := context.Background()
			payload := bytes.Repeat([]byte{7}, 512)
			for round := 0; round < 5; round++ {
				caps, err := cl.Allocate(ctx, 512, time.Minute, Stable)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Store(ctx, caps.Write, 0, payload); err != nil {
					t.Fatal(err)
				}
				if got, err := cl.Load(ctx, caps.Read, 0, 512); err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("Load: %v", err)
				}
				if err := cl.LoadInto(ctx, caps.Read, 0, make([]byte, 512)); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Probe(ctx, caps.Manage); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Extend(ctx, caps.Manage, 2*time.Minute); err != nil {
					t.Fatal(err)
				}
				dst, err := target.Allocate(ctx, 512, time.Minute, Stable)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Copy(ctx, caps.Read, 0, 512, targetAddr, dst.Write, 0); err != nil {
					t.Fatal(err)
				}
				if _, _, _, err := cl.Status(ctx); err != nil {
					t.Fatal(err)
				}
				if err := cl.Free(ctx, caps.Manage); err != nil {
					t.Fatal(err)
				}
			}
			if got := fd.Dials(addr); got != tc.dials {
				t.Errorf("%d dials for 5 rounds of every verb, want %d", got, tc.dials)
			}
		})
	}
}

// openCounter dials plain TCP and counts the connections not yet closed.
type openCounter struct {
	mu          sync.Mutex
	dials, open int
}

func (o *openCounter) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.dials++
	o.open++
	o.mu.Unlock()
	return &countedConn{Conn: c, o: o}, nil
}

func (o *openCounter) counts() (dials, open int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.dials, o.open
}

type countedConn struct {
	net.Conn
	o    *openCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		c.o.mu.Lock()
		c.o.open--
		c.o.mu.Unlock()
	})
	return c.Conn.Close()
}

// TestOnwardCopyConnectionsStayBounded: a depot keeps its connection to a
// COPY target from one COPY to the next, but COPYs naming more targets
// than maxOnward leave at most maxOnward connections open, and Close
// leaves none.
func TestOnwardCopyConnectionsStayBounded(t *testing.T) {
	onward := &openCounter{}
	_, src, srv := startDepotServer(t, 1<<20, func(s *Server) { s.CopyDialer = onward })
	ctx := context.Background()
	caps, err := src.Allocate(ctx, 64, time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Store(ctx, caps.Write, 0, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	targets := maxOnward + 4
	for i := 0; i < targets; i++ {
		addr, cl, _ := startDepotServer(t, 1<<20)
		for n := 0; n < 2; n++ {
			dst, err := cl.Allocate(ctx, 64, time.Minute, Stable)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Copy(ctx, caps.Read, 0, 64, addr, dst.Write, 0); err != nil {
				t.Fatalf("copy %d to target %d: %v", n, i, err)
			}
		}
		if _, open := onward.counts(); open > maxOnward {
			t.Fatalf("after target %d: %d onward connections open, bound %d", i, open, maxOnward)
		}
	}
	if dials, _ := onward.counts(); dials != targets {
		t.Errorf("%d onward dials for 2 COPYs to each of %d targets, want one per target", dials, targets)
	}
	srv.Close()
	if _, open := onward.counts(); open != 0 {
		t.Errorf("%d onward connections open after Close", open)
	}
}
