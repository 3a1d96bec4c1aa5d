package wire_test

// What the five services share because they share the loop: how a shed
// looks and what it does to the connection, that Close leaves no handler
// behind, and that a request line is read with a bound.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/edge"
	"lonviz/internal/ibp"
	"lonviz/internal/obs"
	"lonviz/internal/overload"
)

// pinnedGate is a gate with its one slot held and no queue: everything
// that asks is shed queue_full until release, which may be called twice.
func pinnedGate(t *testing.T) (g *overload.Gate, release func()) {
	t.Helper()
	g = overload.NewGate(1, 0, 0)
	free, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return g, sync.OnceFunc(free)
}

// peer is a raw client: lines out, lines in.
type peer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialPeer(t *testing.T, addr string) *peer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return &peer{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// ask sends req (line plus any payload) and returns the reply line.
func (p *peer) ask(req string) string {
	p.t.Helper()
	if _, err := io.WriteString(p.conn, req); err != nil {
		p.t.Fatalf("%q: %v", req, err)
	}
	line, err := p.br.ReadString('\n')
	if err != nil {
		p.t.Fatalf("%q: reading reply: %v", req, err)
	}
	return line
}

func (p *peer) wantDropped(after string) {
	p.t.Helper()
	if _, err := p.br.ReadByte(); !errors.Is(err, io.EOF) && !isReset(err) {
		p.t.Fatalf("after %s: connection still open (read: %v)", after, err)
	}
}

func TestShedMatrix(t *testing.T) {
	const ibpBusy = ": ibp: depot busy, retry elsewhere"
	type service struct {
		name, suffix, shedFamily string
		pipelined                bool
		// start serves with the given gate and registry; probe is a
		// payload-free request line the service answers OK when admitted.
		start func(t *testing.T, g *overload.Gate, reg *obs.Registry) (addr, probe string)
	}
	services := []service{
		{name: "ibp", suffix: ibpBusy, shedFamily: obs.MIBPShed, pipelined: true,
			start: func(t *testing.T, g *overload.Gate, reg *obs.Registry) (string, string) {
				_, srv, addr := startDepot(t)
				srv.Admission, srv.Obs = g, reg
				return addr, "STATUS"
			}},
		{name: "edge", shedFamily: obs.MEdgeShed, pipelined: true,
			start: func(t *testing.T, g *overload.Gate, reg *obs.Registry) (string, string) {
				srv, addr := startEdge(t)
				srv.Admission, srv.Obs = g, reg
				return addr, "STATUS"
			}},
		{name: "dvs", shedFamily: obs.MDVSShed,
			start: func(t *testing.T, g *overload.Gate, reg *obs.Registry) (string, string) {
				srv := dvs.NewServer("")
				srv.Admission, srv.Obs = g, reg
				if err := srv.RegisterAgent("d", "127.0.0.1:9"); err != nil {
					t.Fatal(err)
				}
				addr, err := srv.ListenAndServe("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				return addr, "AGENT d"
			}},
	}
	for _, svc := range services {
		for _, tagged := range []bool{false, true} {
			if tagged && !svc.pipelined {
				continue
			}
			for _, cause := range []string{overload.ReasonQueueFull, overload.ReasonDeadline} {
				name := fmt.Sprintf("%s/tagged=%v/%s", svc.name, tagged, cause)
				t.Run(name, func(t *testing.T) {
					var g *overload.Gate
					release := func() {}
					token := " deadline=0"
					if cause == overload.ReasonQueueFull {
						g, release = pinnedGate(t)
						token = ""
					}
					defer release()
					reg := obs.NewRegistry()
					addr, probe := svc.start(t, g, reg)
					shed := reg.Counter(obs.Label(svc.shedFamily, "reason", cause))
					busy := "ERR BUSY " + cause + svc.suffix + "\n"

					p := dialPeer(t, addr)
					if !tagged {
						if got := p.ask(probe + token + "\n"); got != busy {
							t.Fatalf("shed reply %q, want %q", got, busy)
						}
						// PROTOCOL.md: a serial shed drops the connection.
						p.wantDropped("an untagged shed")
						if n := shed.Value(); n != 1 {
							t.Fatalf("%s{reason=%s} = %d, want 1", svc.shedFamily, cause, n)
						}
						return
					}
					// The upgrade is granted before admission, full gate or not.
					if got := p.ask("PIPELINE 4\n"); got != "OK 4\n" {
						t.Fatalf("PIPELINE under load -> %q", got)
					}
					if got := p.ask(probe + " tag=1" + token + "\n"); got != "T1 "+busy {
						t.Fatalf("shed reply %q, want %q", got, "T1 "+busy)
					}
					if n := shed.Value(); n != 1 {
						t.Fatalf("%s{reason=%s} = %d, want 1", svc.shedFamily, cause, n)
					}
					// A tagged shed keeps the connection.
					release()
					if got := p.ask(probe + " tag=2\n"); !strings.HasPrefix(got, "T2 OK ") {
						t.Fatalf("after a tagged shed: %q, want T2 OK ...", got)
					}
				})
			}
		}
	}
}

// TestShedStore: a STORE is the request with bytes behind it. Untagged,
// the shed leaves them unread and drops the connection; tagged, they were
// consumed in stream order before admission, so the shed costs only that
// request and the pipe's next LOAD still reads what was stored before.
func TestShedStore(t *testing.T) {
	const busyTail = ": ibp: depot busy, retry elsewhere\n"
	for _, cause := range []string{overload.ReasonQueueFull, overload.ReasonDeadline} {
		t.Run(cause, func(t *testing.T) {
			d, srv, addr := startDepot(t)
			reg := obs.NewRegistry()
			srv.Obs = reg
			caps, err := d.Allocate(5, time.Minute, ibp.Stable)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Store(caps.Write, 0, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			release := func() {}
			token := " deadline=0"
			if cause == overload.ReasonQueueFull {
				srv.Admission, release = pinnedGate(t)
				token = ""
			}
			defer release()
			busy := "ERR BUSY " + cause + busyTail

			serial := dialPeer(t, addr)
			if got := serial.ask("STORE " + caps.Write + " 0 5" + token + "\n"); got != busy {
				t.Fatalf("untagged shed STORE -> %q", got)
			}
			serial.wantDropped("an untagged shed STORE")

			pipe := dialPeer(t, addr)
			if got := pipe.ask("PIPELINE 4\n"); got != "OK 4\n" {
				t.Fatalf("PIPELINE -> %q", got)
			}
			if got := pipe.ask("STORE " + caps.Write + " 0 5 tag=1" + token + "\nHELLO"); got != "T1 "+busy {
				t.Fatalf("tagged shed STORE -> %q", got)
			}
			release()
			if got := pipe.ask("LOAD " + caps.Read + " 0 5 tag=2\n"); got != "T2 OK 5\n" {
				t.Fatalf("LOAD after a shed STORE -> %q", got)
			}
			body := make([]byte, 5)
			if _, err := io.ReadFull(pipe.br, body); err != nil || string(body) != "hello" {
				t.Fatalf("LOAD body %q, %v: the shed STORE must not have been applied", body, err)
			}
			if n := reg.Counter(obs.Label(obs.MIBPShed, "reason", cause)).Value(); n != 2 {
				t.Fatalf("ibp.shed{reason=%s} = %d, want 2", cause, n)
			}
		})
	}
}

// fiveServices starts one of each service on listen's listeners, the two
// agents over r's database. It returns their names, their addresses, for
// each a request that is answered and keeps the connection, and one
// function that closes them all.
func fiveServices(t *testing.T, r *agentRig, listen func() net.Listener) (names, addrs, probes []string, closeAll func()) {
	t.Helper()
	var closers []func() error
	serve := func(name, probe string, serve func(net.Listener) error, close func() error) {
		l := listen()
		go serve(l)
		names, addrs, probes = append(names, name), append(addrs, l.Addr().String()), append(probes, probe)
		closers = append(closers, close)
	}
	d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	depot := ibp.NewServer(d)
	serve("ibp", "STATUS\n", depot.Serve, depot.Close)

	cache, err := edge.NewCache(edge.CacheConfig{CapacityBytes: 1 << 20, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	edgeSrv := edge.NewServer(cache)
	serve("edge", "STATUS\n", edgeSrv.Serve, edgeSrv.Close)

	dvsSrv := dvs.NewServer("")
	serve("dvs", "AGENT nobody\n", dvsSrv.Serve, dvsSrv.Close)

	sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
		Dataset: "neghip", Gen: r.gen, Depots: []string{addrs[0]}, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	serve("render", "RENDER neghip nokey\n", sa.Serve, sa.Close)

	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
		Dataset: "neghip", Params: r.params, DVS: &dvs.Client{Addr: r.dvsAddr},
		CacheBytes: 1 << 20, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cas, err := agent.NewClientAgentServer(ca, "neghip")
	if err != nil {
		t.Fatal(err)
	}
	serve("clientagent", "STATS\n", cas.Serve, func() error { err := cas.Close(); ca.Close(); return err })

	closeAll = func() {
		for _, c := range closers {
			c()
		}
	}
	t.Cleanup(closeAll)
	return names, addrs, probes, closeAll
}

func tcpListener(t *testing.T) func() net.Listener {
	return func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
}

// TestCloseLeavesNoHandler: Close must reach the connections already
// accepted, or the handler of every connection a client still holds open
// sits in its read for ever.
func TestCloseLeavesNoHandler(t *testing.T) {
	r := startAgentRig(t) // its goroutines belong to the baseline
	baseline := runtime.NumGoroutine()
	names, addrs, probes, closeAll := fiveServices(t, r, tcpListener(t))
	var peers []*peer
	for i, addr := range addrs {
		p := dialPeer(t, addr)
		// One answered request: the handler is up, and back in its read.
		if got := p.ask(probes[i]); got == "" {
			t.Fatalf("%s: no answer to %q", names[i], probes[i])
		}
		peers = append(peers, p)
	}
	closeAll()
	for i, p := range peers {
		if _, err := p.br.ReadByte(); !errors.Is(err, io.EOF) && !isReset(err) {
			t.Errorf("%s: idle connection survived Close: %v", names[i], err)
		}
		p.conn.Close()
	}
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

// countingListener counts the bytes its connections' Reads return: what
// the server took off the socket.
type countingListener struct {
	net.Listener
	read *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.read}, nil
}

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// TestRequestLineIsBounded: a peer that never sends a newline must be
// dropped at the line cap, not buffered until it stops.
func TestRequestLineIsBounded(t *testing.T) {
	var counters []*atomic.Int64
	names, addrs, _, _ := fiveServices(t, startAgentRig(t), func() net.Listener {
		n := new(atomic.Int64)
		counters = append(counters, n)
		return countingListener{tcpListener(t)(), n}
	})
	chunk := []byte(strings.Repeat("A", 64<<10))
	for i, addr := range addrs {
		p := dialPeer(t, addr)
		sent, dropped := 0, false
		for sent < 8<<20 {
			n, err := p.conn.Write(chunk)
			sent += n
			if err != nil {
				dropped = true
				break
			}
		}
		if !dropped {
			// Everything fitted in socket buffers: the close still shows.
			if _, err := p.br.ReadByte(); err == nil {
				t.Errorf("%s: answered an 8 MiB line", names[i])
			} else if !errors.Is(err, io.EOF) && !isReset(err) {
				t.Errorf("%s: still open after an 8 MiB line without a newline: %v", names[i], err)
			}
		}
		if got := counters[i].Load(); got > 64<<10 {
			t.Errorf("%s: consumed %d bytes of an unterminated line, want <= 64 KiB", names[i], got)
		}
	}
}
