package lonviz

import (
	"context"
	"net"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/edge"
	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
)

// TestClosedServerRefusesDials: a server owns its listener from the moment
// it binds, so a Close that comes right after the start, before the serving
// goroutine has run, still leaves nothing accepting on the address. One
// case per server a daemon starts; each is started and closed twenty times.
func TestClosedServerRefusesDials(t *testing.T) {
	checkGoroutines(t)
	defer obs.SetPropagation(obs.PropagationEnabled()) // obs.Serve turns it on
	p := lightfield.ScaledParams(45, 2, 8)
	gen, err := lightfield.NewProceduralGenerator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	depot, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing in this test dials the DVS: the agents are only served.
	dvsClient := &dvs.Client{Addr: "127.0.0.1:1"}
	ca, err := agent.NewClientAgent(agent.ClientAgentConfig{Dataset: "d", Params: p, DVS: dvsClient})
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cache, err := edge.NewCache(edge.CacheConfig{CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	// Each start binds 127.0.0.1:0 and returns the bound address and the
	// server's Close.
	listen := func(s interface {
		ListenAndServe(string) (string, error)
		Close() error
	}) (string, func(), error) {
		addr, err := s.ListenAndServe("127.0.0.1:0")
		return addr, func() { _ = s.Close() }, err
	}
	cases := []struct {
		name  string
		start func() (string, func(), error)
	}{
		{"ibp", func() (string, func(), error) { return listen(ibp.NewServer(depot)) }},
		{"dvs", func() (string, func(), error) { return listen(dvs.NewServer("")) }},
		{"server agent", func() (string, func(), error) {
			sa, err := agent.NewServerAgent(agent.ServerAgentConfig{Dataset: "d", Gen: gen, Depots: []string{"127.0.0.1:1"}, DVS: dvsClient})
			if err != nil {
				return "", nil, err
			}
			return listen(sa)
		}},
		{"client-agent server", func() (string, func(), error) {
			s, err := agent.NewClientAgentServer(ca, "d")
			if err != nil {
				return "", nil, err
			}
			return listen(s)
		}},
		{"edge", func() (string, func(), error) { return listen(edge.NewServer(cache)) }},
		{"obs", func() (string, func(), error) {
			s, err := obs.Serve("127.0.0.1:0", obs.ServeOptions{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(1)})
			if err != nil {
				return "", nil, err
			}
			return s.Addr(), func() { _ = s.Close(context.Background()) }, nil
		}},
		{"lbone", func() (string, func(), error) { return listen(lbone.NewServer()) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				addr, closeNow, err := c.start()
				if err != nil {
					t.Fatal(err)
				}
				closeNow()
				if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
					nc.Close()
					t.Fatalf("round %d: %s accepted a connection after Close returned", round, addr)
				}
			}
		})
	}
}
