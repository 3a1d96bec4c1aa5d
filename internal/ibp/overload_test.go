package ibp

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"lonviz/internal/obs"
	"lonviz/internal/overload"
)

// TestAdmissionShedsBusy: with every execution slot held and the wait
// queue full, a new request is rejected with a typed ErrBusy the client
// can classify.
func TestAdmissionShedsBusy(t *testing.T) {
	_, cl, srv := startDepotServer(t, 1<<20, func(s *Server) {
		s.Admission = overload.NewGate(1, 0, 50*time.Millisecond)
	})

	// Occupy the single slot out-of-band so the wire request finds the
	// gate full with an empty queue.
	release, err := srv.Admission.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	_, _, _, err = cl.Status(context.Background())
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("status under full gate: %v, want ErrBusy", err)
	}
}

// TestAdmissionAdmitsAfterDrain: releasing the slot lets the next
// request through unchanged.
func TestAdmissionAdmitsAfterDrain(t *testing.T) {
	_, cl, _ := startDepotServer(t, 1<<20, func(s *Server) { s.Admission = overload.NewGate(1, 2, time.Second) })
	if _, _, _, err := cl.Status(context.Background()); err != nil {
		t.Fatalf("status through idle gate: %v", err)
	}
	caps, err := cl.Allocate(context.Background(), 100, time.Minute, Stable)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Store(context.Background(), caps.Write, 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// TestBusyWireOldClientNewDepot proves back-compat toward old clients: a
// pre-BUSY client (simulated with a raw connection that knows nothing of
// tokens or the BUSY code) receives a well-formed "ERR BUSY ..." line it
// parses as a generic error, not a protocol break.
func TestBusyWireOldClientNewDepot(t *testing.T) {
	addr, _, srv := startDepotServer(t, 1<<20, func(s *Server) {
		s.Admission = overload.NewGate(1, 0, 50*time.Millisecond)
	})
	release, err := srv.Admission.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("STATUS\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "ERR" || f[1] != "BUSY" {
		t.Fatalf("shed response = %q, want ERR BUSY ...", line)
	}
}

// TestBusyWireNewClientOldDepot proves back-compat toward old depots:
// with propagation off (the default), a client holding a ctx deadline
// emits a byte-identical request line with no deadline token, so an old
// depot's strict argument-count checks still pass.
func TestBusyWireNewClientOldDepot(t *testing.T) {
	if obs.PropagationEnabled() {
		t.Fatal("propagation unexpectedly on at test start")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lines := make(chan string, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		line, _ := bufio.NewReader(c).ReadString('\n')
		lines <- line
		// An old depot's STATUS reply shape.
		c.Write([]byte("OK 100 0 0\n"))
	}()

	cl := &Client{Addr: l.Addr().String()}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, _, err := cl.Status(ctx); err != nil {
		t.Fatalf("status against old depot: %v", err)
	}
	if got := <-lines; got != "STATUS\n" {
		t.Fatalf("request line = %q, want bare STATUS (no tokens with propagation off)", got)
	}
}

// TestDeadlineTokenEnforced: with propagation on, a request arriving
// with an exhausted deadline budget is shed with BUSY even when
// admission control is disabled, and a generous budget passes the
// argument-count checks untouched.
func TestDeadlineTokenEnforced(t *testing.T) {
	addr, _, _ := startDepotServer(t, 1<<20)

	send := func(line string) []string {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		resp, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.Fields(resp)
	}

	if f := send("STATUS deadline=0\n"); len(f) < 2 || f[0] != "ERR" || f[1] != "BUSY" {
		t.Fatalf("zero-budget request = %v, want ERR BUSY", f)
	}
	if f := send("STATUS deadline=5000\n"); len(f) != 4 || f[0] != "OK" {
		t.Fatalf("generous-budget request = %v, want OK capacity used allocs", f)
	}
}

// TestDeadlinePropagatedEndToEnd: a client ctx deadline crosses the wire
// when propagation is on, visible as depot-side enforcement: an expired
// budget never reaches the depot verb handler.
func TestDeadlinePropagatedEndToEnd(t *testing.T) {
	obs.SetPropagation(true)
	defer obs.SetPropagation(false)

	_, cl, _ := startDepotServer(t, 1<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A healthy budget round-trips normally.
	if _, _, _, err := cl.Status(ctx); err != nil {
		t.Fatalf("status with budget: %v", err)
	}
}
