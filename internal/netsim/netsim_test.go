package netsim

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns a connected TCP pair over loopback.
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func TestShapePassesData(t *testing.T) {
	c, s := pipePair(t)
	sc := Shape(c, ProfileLocal)
	msg := []byte("view set bytes")
	go func() { s.Write(msg) }()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(sc, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("got %q", buf)
	}
}

func TestLatencyAppliedOnce(t *testing.T) {
	c, s := pipePair(t)
	p := LinkProfile{Name: "test", Latency: 50 * time.Millisecond}
	sc := Shape(c, p)
	go func() {
		s.Write([]byte("a"))
		time.Sleep(10 * time.Millisecond)
		s.Write([]byte("b"))
	}()
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(sc, buf); err != nil {
		t.Fatal(err)
	}
	first := time.Since(start)
	if first < 50*time.Millisecond {
		t.Errorf("first read took %v, want >= 50ms", first)
	}
	start = time.Now()
	if _, err := io.ReadFull(sc, buf); err != nil {
		t.Fatal(err)
	}
	second := time.Since(start)
	if second > 45*time.Millisecond {
		t.Errorf("second read took %v; latency applied more than once", second)
	}
}

func TestBandwidthLimit(t *testing.T) {
	c, s := pipePair(t)
	// 1 MiB/s with tiny burst: transferring 256 KiB beyond the burst
	// should take roughly 0.2s.
	p := LinkProfile{Name: "slow", Bandwidth: 1 << 20, Burst: 32 * 1024}
	sc := Shape(c, p)
	payload := make([]byte, 256*1024)
	go func() {
		s.Write(payload)
	}()
	start := time.Now()
	if _, err := io.ReadFull(sc, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// (256-32) KiB at 1 MiB/s = ~218ms minimum.
	if elapsed < 150*time.Millisecond {
		t.Errorf("transfer took %v, bandwidth limit not enforced", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("transfer took %v, limiter far too slow", elapsed)
	}
}

func TestUnlimitedProfileFast(t *testing.T) {
	c, s := pipePair(t)
	sc := Shape(c, ProfileLocal)
	payload := make([]byte, 1<<20)
	go func() { s.Write(payload) }()
	start := time.Now()
	if _, err := io.ReadFull(sc, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("unshaped transfer took %v", elapsed)
	}
}

func TestDialerRoutes(t *testing.T) {
	d := NewDialer(ProfileLocal)
	d.SetRoute("10.0.0.1:5000", ProfileWAN)
	if got := d.RouteTo("10.0.0.1:5000"); got.Name != "wan" {
		t.Errorf("RouteTo = %+v", got)
	}
	if got := d.RouteTo("10.0.0.2:5000"); got.Name != "local" {
		t.Errorf("fallback RouteTo = %+v", got)
	}
}

func TestDialerDialShapes(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Write([]byte("pong"))
			c.Close()
		}
	}()
	d := NewDialer(ProfileLocal)
	d.SetRoute(l.Addr().String(), LinkProfile{Name: "slowlink", Latency: 30 * time.Millisecond})
	start := time.Now()
	c, err := d.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("dial returned in %v, handshake latency not applied", elapsed)
	}
	sc, ok := c.(*Conn)
	if !ok {
		t.Fatalf("dialed conn is %T", c)
	}
	if sc.Profile().Name != "slowlink" {
		t.Errorf("profile = %+v", sc.Profile())
	}
	if _, err := io.ReadFull(c, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
}

func TestDialerConnectionRefused(t *testing.T) {
	d := NewDialer(ProfileLocal)
	d.DialTimeout = 200 * time.Millisecond
	if _, err := d.Dial("127.0.0.1:1"); err == nil {
		t.Error("expected connection error")
	}
}

func TestTokenBucketLongRunRate(t *testing.T) {
	tb := newTokenBucket(1<<20, 1024) // 1 MiB/s, 1 KiB burst
	start := time.Now()
	total := 0
	for total < 200*1024 {
		tb.wait(16 * 1024)
		total += 16 * 1024
	}
	elapsed := time.Since(start).Seconds()
	rate := float64(total) / elapsed
	if rate > 1.4*float64(1<<20) {
		t.Errorf("long-run rate %.0f B/s exceeds limit", rate)
	}
}

func TestSharedBucketContention(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 128*1024)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				c.Write(payload)
				c.Close()
			}(c)
		}
	}()
	// Shared 1 MiB/s across two concurrent transfers of 128 KiB each:
	// total 256 KiB must take >= ~0.2s beyond the burst; unshared would
	// run both at full rate.
	p := LinkProfile{Name: "bottleneck", Bandwidth: 1 << 20, Burst: 16 * 1024, Shared: true}
	d := NewDialer(p)
	start := time.Now()
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := d.Dial(l.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			_, err = io.ReadFull(c, make([]byte, len(payload)))
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 256 KiB - 16 KiB burst at 1 MiB/s ~= 234ms minimum if shared.
	if elapsed < 180*time.Millisecond {
		t.Errorf("two shared transfers took %v; bucket not shared", elapsed)
	}
}
