package lbone

import (
	"context"
	"sync"
	"testing"
	"time"
)

type stubClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stubClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stubClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestRegisterValidation(t *testing.T) {
	s := NewServer()
	if err := s.Register(DepotRecord{}); err == nil {
		t.Error("empty addr accepted")
	}
	if err := s.Register(DepotRecord{Addr: "a:1", Capacity: 10, Free: 20}); err == nil {
		t.Error("free > capacity accepted")
	}
	if err := s.Register(DepotRecord{Addr: "a:1", Capacity: 100, Free: 50}); err != nil {
		t.Error(err)
	}
}

func TestLookupSortsByDistance(t *testing.T) {
	s := NewServer()
	s.Register(DepotRecord{Addr: "far:1", X: 100, Y: 100, Capacity: 1000, Free: 1000})
	s.Register(DepotRecord{Addr: "near:1", X: 1, Y: 1, Capacity: 1000, Free: 1000})
	s.Register(DepotRecord{Addr: "mid:1", X: 10, Y: 10, Capacity: 1000, Free: 1000})
	got := s.Lookup(0, 0, 0, 0)
	if len(got) != 3 || got[0].Addr != "near:1" || got[1].Addr != "mid:1" || got[2].Addr != "far:1" {
		t.Errorf("lookup order = %+v", got)
	}
	// Limit n.
	if got := s.Lookup(0, 0, 2, 0); len(got) != 2 || got[0].Addr != "near:1" {
		t.Errorf("limited lookup = %+v", got)
	}
}

func TestLookupFiltersCapacity(t *testing.T) {
	s := NewServer()
	s.Register(DepotRecord{Addr: "small:1", Capacity: 100, Free: 10})
	s.Register(DepotRecord{Addr: "big:1", Capacity: 1000, Free: 900})
	got := s.Lookup(0, 0, 0, 500)
	if len(got) != 1 || got[0].Addr != "big:1" {
		t.Errorf("capacity filter = %+v", got)
	}
}

func TestLookupExpiresStale(t *testing.T) {
	clk := &stubClock{now: time.Unix(0, 0)}
	s := NewServer()
	s.Clock = clk.Now
	s.TTL = 10 * time.Second
	s.Register(DepotRecord{Addr: "old:1", Capacity: 10, Free: 10})
	clk.Advance(5 * time.Second)
	s.Register(DepotRecord{Addr: "fresh:1", Capacity: 10, Free: 10})
	clk.Advance(7 * time.Second) // old is now 12s stale, fresh 7s
	got := s.Lookup(0, 0, 0, 0)
	if len(got) != 1 || got[0].Addr != "fresh:1" {
		t.Errorf("stale filtering = %+v", got)
	}
	// Re-registration revives.
	s.Register(DepotRecord{Addr: "old:1", Capacity: 10, Free: 10})
	if got := s.Lookup(0, 0, 0, 0); len(got) != 2 {
		t.Errorf("after heartbeat = %+v", got)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s := NewServer()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := &Client{BaseURL: "http://" + addr}
	if err := cl.Register(context.Background(), DepotRecord{Addr: "depot1:6714", X: 3, Y: 4, Capacity: 500, Free: 400}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(context.Background(), DepotRecord{Addr: "depot2:6714", X: 30, Y: 40, Capacity: 500, Free: 400}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Lookup(context.Background(), 0, 0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Addr != "depot1:6714" {
		t.Errorf("lookup = %+v", got)
	}
	if got[0].LastSeen.IsZero() {
		t.Error("LastSeen not stamped by server")
	}
}

func TestHTTPRejectsBadRequests(t *testing.T) {
	s := NewServer()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := &Client{BaseURL: "http://" + addr}
	if err := cl.Register(context.Background(), DepotRecord{}); err == nil {
		t.Error("register without addr accepted over HTTP")
	}
	// Unknown path 404s; client Lookup reports non-200.
	badClient := &Client{BaseURL: "http://" + addr + "/nope"}
	if _, err := badClient.Lookup(context.Background(), 0, 0, 1, 0); err == nil {
		t.Error("lookup against bad path succeeded")
	}
}

func TestHeartbeatLoop(t *testing.T) {
	s := NewServer()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := &Client{BaseURL: "http://" + addr}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl.Heartbeat(func() DepotRecord {
			return DepotRecord{Addr: "hb:1", Capacity: 10, Free: 5}
		}, 10*time.Millisecond, stop)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := s.Lookup(0, 0, 0, 0); len(got) == 1 && got[0].Addr == "hb:1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done
}

func TestSweepDropsStaleRecords(t *testing.T) {
	clk := &stubClock{now: time.Unix(0, 0)}
	s := NewServer()
	s.Clock = clk.Now
	s.TTL = 10 * time.Second
	s.Register(DepotRecord{Addr: "a:1", Capacity: 10, Free: 10})
	clk.Advance(6 * time.Second)
	s.Register(DepotRecord{Addr: "b:1", Capacity: 10, Free: 10})

	if got := s.Members(); len(got) != 2 {
		t.Errorf("premature sweep left %+v", got)
	}
	clk.Advance(6 * time.Second) // a is 12s stale, b 6s
	if got := s.Lookup(0, 0, 0, 0); len(got) != 1 || got[0].Addr != "b:1" {
		t.Errorf("after sweep = %+v", got)
	}
	// The read deleted the stale record, not merely filtered it out.
	s.mu.Lock()
	_, kept := s.records["a:1"]
	s.mu.Unlock()
	if kept {
		t.Error("the stale record outlived the sweep")
	}
	if got := s.Members(); len(got) != 1 || got[0].Addr != "b:1" {
		t.Errorf("members after sweep = %+v", got)
	}
}

func TestLookupExcluding(t *testing.T) {
	s := NewServer()
	for i, a := range []string{"a:1", "b:1", "c:1"} {
		if err := s.Register(DepotRecord{Addr: a, X: float64(i), Capacity: 10, Free: 10}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.LookupExcluding(0, 0, 0, 0, []string{"a:1", "c:1"})
	if len(got) != 1 || got[0].Addr != "b:1" {
		t.Errorf("exclusion = %+v", got)
	}
	// n counts usable results: excluding the nearest still yields n others.
	got = s.LookupExcluding(0, 0, 2, 0, []string{"a:1"})
	if len(got) != 2 || got[0].Addr != "b:1" || got[1].Addr != "c:1" {
		t.Errorf("n after exclusion = %+v", got)
	}
}

func TestHTTPLookupExcluding(t *testing.T) {
	s := NewServer()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := &Client{BaseURL: "http://" + addr}
	for i, a := range []string{"a:1", "b:1", "c:1"} {
		if err := cl.Register(context.Background(), DepotRecord{Addr: a, X: float64(i), Capacity: 10, Free: 10}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.LookupExcluding(context.Background(), 0, 0, 2, 0, []string{"a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Addr != "b:1" || got[1].Addr != "c:1" {
		t.Errorf("HTTP exclusion = %+v", got)
	}
	// No exclusions behaves like plain Lookup.
	got, err = cl.LookupExcluding(context.Background(), 0, 0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Addr != "a:1" {
		t.Errorf("empty exclusion = %+v", got)
	}
}
