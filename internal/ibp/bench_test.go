package ibp

import (
	"context"
	"sync"
	"testing"
	"time"

	"lonviz/internal/obs"
)

// The client transport alone: one in-memory depot behind a loopback
// listener, the extent sizes the browse workloads send (one 64 KiB stripe,
// and the 26 KiB tail extent of a view set). The pipelined benchmarks run
// two callers on one pipe, as the repository benchmark's depot_mix workload
// does.

const (
	benchStripe = 64 * 1024
	benchTail   = 26 * 1024
)

func benchDepot(b *testing.B) (addr string, caps Capabilities) {
	b.Helper()
	d, err := NewDepot(DepotConfig{Capacity: 8 << 20, MaxLease: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(d)
	srv.Obs = obs.NewRegistry()
	addr, err = srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	caps, err = d.Allocate(benchStripe, time.Hour, Stable)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Store(caps.Write, 0, make([]byte, benchStripe)); err != nil {
		b.Fatal(err)
	}
	return addr, caps
}

func BenchmarkSerialLoad64K(b *testing.B) {
	addr, caps := benchDepot(b)
	cl := &Client{Addr: addr, Obs: obs.NewRegistry()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dst := make([]byte, benchStripe)
	b.ReportAllocs()
	b.SetBytes(benchStripe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.LoadInto(ctx, caps.Read, 0, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOnPipe splits b.N calls of op between two goroutines on one pipe.
func benchOnPipe(b *testing.B, op func(ctx context.Context, p *Pipe, caps Capabilities, buf []byte) error) {
	addr, caps := benchDepot(b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := DialPipe(ctx, addr, nil, 0, obs.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	const callers = 2
	bufs := [callers][]byte{make([]byte, benchStripe), make([]byte, benchStripe)}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.N; i += callers {
				if err := op(ctx, p, caps, bufs[g]); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkPipeLoad64K(b *testing.B) {
	b.SetBytes(benchStripe)
	benchOnPipe(b, func(ctx context.Context, p *Pipe, caps Capabilities, buf []byte) error {
		return p.Load(ctx, caps.Read, 0, buf)
	})
}

// BenchmarkPipeLoad26K is the reply that fitted a connection's write buffer
// whole when replies went through one, so it took one write then as now.
func BenchmarkPipeLoad26K(b *testing.B) {
	b.SetBytes(benchTail)
	benchOnPipe(b, func(ctx context.Context, p *Pipe, caps Capabilities, buf []byte) error {
		return p.Load(ctx, caps.Read, 0, buf[:benchTail])
	})
}

func BenchmarkPipeStore64K(b *testing.B) {
	b.SetBytes(benchStripe)
	benchOnPipe(b, func(ctx context.Context, p *Pipe, caps Capabilities, buf []byte) error {
		return p.Store(ctx, caps.Write, 0, buf)
	})
}

func BenchmarkPipeProbe(b *testing.B) {
	benchOnPipe(b, func(ctx context.Context, p *Pipe, caps Capabilities, _ []byte) error {
		_, err := p.Probe(ctx, caps.Manage)
		return err
	})
}
