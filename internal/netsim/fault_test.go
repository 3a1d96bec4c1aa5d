package netsim

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// echoServer accepts connections and writes payload to each, then closes.
func echoServer(t *testing.T, payload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(payload)
			}(c)
		}
	}()
	return ln.Addr().String()
}

func TestFaultDialerPassthrough(t *testing.T) {
	addr := echoServer(t, []byte("OK 2\nhi"))
	fd := NewFaultDialer(nil, 1)
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "OK 2\nhi" {
		t.Errorf("passthrough read %q", got)
	}
	if fd.Dials(addr) != 1 || fd.Refused(addr) != 0 {
		t.Errorf("dials=%d refused=%d", fd.Dials(addr), fd.Refused(addr))
	}
}

func TestFaultDialerKillRevive(t *testing.T) {
	addr := echoServer(t, []byte("x"))
	fd := NewFaultDialer(nil, 2)
	fd.Kill(addr)
	for i := 0; i < 3; i++ {
		if _, err := fd.Dial(addr); !errors.Is(err, ErrInjectedRefusal) {
			t.Fatalf("dial %d: err = %v, want injected refusal", i, err)
		}
	}
	if fd.Dials(addr) != 3 || fd.Refused(addr) != 3 {
		t.Errorf("dials=%d refused=%d, want 3/3", fd.Dials(addr), fd.Refused(addr))
	}
	fd.Revive(addr)
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatalf("dial after revive: %v", err)
	}
	conn.Close()
	if fd.Refused(addr) != 3 {
		t.Errorf("revived dial counted as refused")
	}
}

func TestFaultDialerSeedDeterminism(t *testing.T) {
	addr := echoServer(t, []byte("x"))
	outcomes := func(seed int64) []bool {
		fd := NewFaultDialer(nil, seed)
		fd.SetFault(addr, FaultProfile{RefuseProb: 0.5})
		out := make([]bool, 32)
		for i := range out {
			conn, err := fd.Dial(addr)
			out[i] = err == nil
			if conn != nil {
				conn.Close()
			}
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at dial %d", i)
		}
	}
	c := outcomes(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 32-dial sequences")
	}
}

func TestFaultDialerCorruptsOnePayloadByte(t *testing.T) {
	payload := append([]byte("OK 64\n"), bytes.Repeat([]byte{0x41}, 64)...)
	addr := lineServer(t)
	fd := NewFaultDialer(nil, 3)
	fd.SetFault(addr, FaultProfile{CorruptProb: 1})
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The request frames the reply: an OK to a LOAD carries a body.
	if _, err := conn.Write([]byte("LOAD rcap 0 64\n")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	// The status line must survive untouched; exactly one later byte flips.
	if !bytes.Equal(got[:6], payload[:6]) {
		t.Errorf("status line corrupted: %q", got[:6])
	}
	diffs := 0
	for i := 6; i < len(got); i++ {
		if got[i] != payload[i] {
			diffs++
			if got[i] != payload[i]^0x80 {
				t.Errorf("byte %d changed %#x -> %#x, not a single bit-flip", i, payload[i], got[i])
			}
		}
	}
	if diffs != 1 {
		t.Errorf("%d payload bytes corrupted, want exactly 1", diffs)
	}
}

func TestFaultDialerStallHonorsDeadline(t *testing.T) {
	addr := echoServer(t, []byte("never delivered"))
	fd := NewFaultDialer(nil, 4)
	fd.SetFault(addr, FaultProfile{StallProb: 1, StallMax: 10 * time.Second})
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = conn.Read(make([]byte, 1))
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read err = %v, want deadline exceeded", err)
	}
	if elapsed < 40*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("stall lasted %v, want ~50ms", elapsed)
	}
}

func TestFaultDialerStallCapWithoutDeadline(t *testing.T) {
	addr := echoServer(t, []byte("never delivered"))
	fd := NewFaultDialer(nil, 5)
	fd.SetFault(addr, FaultProfile{StallProb: 1, StallMax: 30 * time.Millisecond})
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_, err = conn.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-less stall ran %v despite 30ms cap", elapsed)
	}
}

func TestFaultDialerDropClosesConn(t *testing.T) {
	addr := echoServer(t, bytes.Repeat([]byte{1}, 1024))
	fd := NewFaultDialer(nil, 6)
	fd.SetFault(addr, FaultProfile{DropProb: 1})
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Read(make([]byte, 16)); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("read err = %v, want injected drop", err)
	}
	// The underlying socket is dead: subsequent reads keep failing.
	if _, err := conn.Read(make([]byte, 16)); err == nil {
		t.Error("read after drop succeeded")
	}
}

func TestFaultDialerSpikeDelaysFirstRead(t *testing.T) {
	addr := echoServer(t, []byte("data"))
	fd := NewFaultDialer(nil, 7)
	fd.SetFault(addr, FaultProfile{SpikeProb: 1, Spike: 60 * time.Millisecond})
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Read(make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("first read returned in %v; spike not applied", elapsed)
	}
	// The spike fires once a reply: later reads of it are not delayed.
	start = time.Now()
	conn.Read(make([]byte, 4)) // EOF, immaterial
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("second read delayed %v; spike re-fired", elapsed)
	}
}

func TestFaultDialerFallbackProfile(t *testing.T) {
	addr := echoServer(t, []byte("x"))
	fd := NewFaultDialer(nil, 8)
	fd.SetFallback(FaultProfile{RefuseProb: 1})
	if _, err := fd.Dial(addr); !errors.Is(err, ErrInjectedRefusal) {
		t.Fatalf("fallback profile not applied: %v", err)
	}
	// A per-address profile overrides the fallback.
	fd.SetFault(addr, FaultProfile{})
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatalf("per-address override not applied: %v", err)
	}
	conn.Close()
}

func TestFaultDialerWrapsInnerDialer(t *testing.T) {
	addr := echoServer(t, []byte("via inner"))
	inner := NewDialer(LinkProfile{Name: "lan"})
	fd := NewFaultDialer(inner, 9)
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "via inner" {
		t.Errorf("read %q through inner dialer", got)
	}
}

// lineServer answers the IBP framing the fault layer reads: PIPELINE
// upgrades the connection to tagged replies, LOAD <cap> <off> <n> gets n
// bytes of 'A', STORE <cap> <off> <n> consumes its payload, anything else
// gets "OK 0".
func lineServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				tagged := false
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					f := strings.Fields(line)
					prefix := ""
					if n := len(f); tagged && n > 0 && strings.HasPrefix(f[n-1], "tag=") {
						prefix, f = "T"+strings.TrimPrefix(f[n-1], "tag=")+" ", f[:n-1]
					}
					switch {
					case len(f) == 2 && f[0] == "PIPELINE":
						tagged = true
						fmt.Fprintf(c, "OK %s\n", f[1])
					case len(f) == 4 && f[0] == "LOAD":
						n, _ := strconv.Atoi(f[3])
						fmt.Fprintf(c, "%sOK %d\n%s", prefix, n, bytes.Repeat([]byte{'A'}, n))
					case len(f) == 4 && f[0] == "STORE":
						n, _ := strconv.Atoi(f[3])
						if _, err := br.Discard(n); err != nil {
							return
						}
						fmt.Fprintf(c, "%sOK %d\n", prefix, n)
					default:
						fmt.Fprintf(c, "%sOK 0\n", prefix)
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// exchange writes one request and reads its reply: the status line byte by
// byte, then the body it announces when the request was a LOAD.
func exchange(t *testing.T, conn net.Conn, req string) (status string, body []byte) {
	t.Helper()
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatalf("write %q: %v", req, err)
	}
	var line []byte
	for b := make([]byte, 1); ; {
		if _, err := io.ReadFull(conn, b); err != nil {
			t.Fatalf("reply to %q: %v", req, err)
		}
		if b[0] == '\n' {
			break
		}
		line = append(line, b[0])
	}
	f := strings.Fields(string(line))
	if strings.HasPrefix(req, "LOAD") {
		n, _ := strconv.Atoi(f[len(f)-1])
		body = make([]byte, n)
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatalf("body of %q: %v", req, err)
		}
	}
	return string(line), body
}

// TestFaultPerReplyCorruptsOnlyTheKthBody: on one kept connection, untagged
// and tagged, a corruption in force for the second reply flips one bit of
// that reply's body and nothing else: not its status line, not the replies
// before or after it, not a STORE whose payload looks like a request.
func TestFaultPerReplyCorruptsOnlyTheKthBody(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		addr := lineServer(t)
		fd := NewFaultDialer(nil, 10)
		conn, err := fd.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		tag := func(n int) string { return "" }
		want := func(n int) string { return "OK 16" }
		if tagged {
			if status, _ := exchange(t, conn, "PIPELINE 4\n"); status != "OK 4" {
				t.Fatalf("handshake reply %q", status)
			}
			tag = func(n int) string { return fmt.Sprintf(" tag=%d", n) }
			want = func(n int) string { return fmt.Sprintf("T%d OK 16", n) }
		}
		if status, _ := exchange(t, conn, "STORE wcap 0 9"+tag(9)+"\nLOAD x 1\n"); !strings.HasSuffix(status, "OK 9") {
			t.Fatalf("tagged=%v: STORE reply %q", tagged, status)
		}
		for k := 1; k <= 3; k++ {
			if k == 2 {
				fd.SetFault(addr, FaultProfile{CorruptProb: 1})
			}
			status, body := exchange(t, conn, fmt.Sprintf("LOAD rcap 0 16%s\n", tag(k)))
			fd.SetFault(addr, FaultProfile{})
			if status != want(k) {
				t.Errorf("tagged=%v reply %d: status %q, want %q", tagged, k, status, want(k))
			}
			flipped := 0
			for _, b := range body {
				if b != 'A' {
					flipped++
					if b != 'A'^0x80 {
						t.Errorf("tagged=%v reply %d: byte %#x is no single bit-flip", tagged, k, b)
					}
				}
			}
			if wantFlips := map[bool]int{true: 1, false: 0}[k == 2]; flipped != wantFlips {
				t.Errorf("tagged=%v reply %d: %d body bytes flipped, want %d", tagged, k, flipped, wantFlips)
			}
		}
		conn.Close()
	}
}

// TestFaultPerReplySpikeDelaysOnlyTheKthReply: a spike in force for the
// second reply on a kept connection delays that reply and no other.
func TestFaultPerReplySpikeDelaysOnlyTheKthReply(t *testing.T) {
	const spike = 80 * time.Millisecond
	addr := lineServer(t)
	fd := NewFaultDialer(nil, 11)
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for k := 1; k <= 3; k++ {
		if k == 2 {
			fd.SetFault(addr, FaultProfile{SpikeProb: 1, Spike: spike})
		}
		start := time.Now()
		exchange(t, conn, "LOAD rcap 0 8\n")
		elapsed := time.Since(start)
		fd.SetFault(addr, FaultProfile{})
		if k == 2 && elapsed < spike {
			t.Errorf("reply %d took %v, want the %v spike", k, elapsed, spike)
		}
		if k != 2 && elapsed >= spike {
			t.Errorf("reply %d took %v: the spike was not the second reply's alone", k, elapsed)
		}
	}
	if fd.Dials(addr) != 1 {
		t.Errorf("%d dials, want the one kept connection", fd.Dials(addr))
	}
}

// TestFaultKillBreaksOpenConnections: Kill refuses new dials and fails the
// next request on a connection that was already open.
func TestFaultKillBreaksOpenConnections(t *testing.T) {
	addr := lineServer(t)
	fd := NewFaultDialer(nil, 12)
	conn, err := fd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange(t, conn, "LOAD rcap 0 8\n")
	fd.Kill(addr)
	_, werr := conn.Write([]byte("LOAD rcap 0 8\n"))
	_, rerr := conn.Read(make([]byte, 1))
	if werr == nil && rerr == nil {
		t.Error("an open connection to a killed address still answered")
	}
	if _, err := fd.Dial(addr); !errors.Is(err, ErrInjectedRefusal) {
		t.Errorf("dial after Kill: %v, want injected refusal", err)
	}
}
