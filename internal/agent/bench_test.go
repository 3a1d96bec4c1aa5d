package agent

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"lonviz/internal/dvs"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
)

// The client agent's miss path alone: three in-memory depots and a DVS on
// unshaped loopback, one view set published at the repository benchmark's
// lattice and stripe size (bench/spec.go, bench/deploy.go: ≈ 117 KiB
// frames in 64 KiB stripes), the frame dropped from the agent's cache each
// iteration so every request is a miss. What is left is what the agent
// itself adds to a DVS lookup and two pipelined LOADs.

func benchAgent(b *testing.B) (*ClientAgent, lightfield.Params, lightfield.ViewSetID) {
	b.Helper()
	p := lightfield.ScaledParams(5, 6, 100)
	var depots []string
	for i := 0; i < 3; i++ {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 24, MaxLease: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		srv := ibp.NewServer(d)
		srv.Obs = obs.NewRegistry()
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		depots = append(depots, addr)
	}
	ds := dvs.NewServer("")
	ds.Obs = obs.NewRegistry()
	dvsAddr, err := ds.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ds.Close() })
	gen, err := lightfield.NewProceduralGenerator(p, 77)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	sa, err := NewServerAgent(ServerAgentConfig{
		Dataset: "bench", Gen: gen, Depots: depots, StripeSize: 64 << 10,
		DVS: &dvs.Client{Addr: dvsAddr}, Obs: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sa.Close() })
	id := lightfield.ViewSetID{R: 2, C: 3}
	if _, err := sa.Request(context.Background(), id); err != nil {
		b.Fatal(err)
	}
	ca, err := NewClientAgent(ClientAgentConfig{
		Dataset: "bench", Params: p, DVS: &dvs.Client{Addr: dvsAddr},
		Obs: reg, Tracer: obs.NewTracer(64),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ca.Close)
	return ca, p, id
}

func BenchmarkClientAgentMiss(b *testing.B) {
	b.Run("buffered", func(b *testing.B) {
		ca, _, id := benchAgent(b)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ca.DropCached(id)
			frame, rep, err := ca.GetViewSet(ctx, id)
			if err != nil || rep.Class != AccessWAN {
				b.Fatalf("miss: class %v, %v", rep.Class, err)
			}
			b.SetBytes(int64(len(frame)))
		}
	})
	b.Run("stream", func(b *testing.B) {
		ca, _, id := benchAgent(b)
		ctx := context.Background()
		var sink bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ca.DropCached(id)
			st, err := ca.GetViewSetStream(ctx, id)
			if err != nil {
				b.Fatal(err)
			}
			sink.Reset()
			n, err := io.Copy(&sink, st.Reader)
			if err != nil {
				b.Fatal(err)
			}
			if rep, err := st.Report(); err != nil || rep.Class != AccessWAN {
				b.Fatalf("miss: class %v, %v", rep.Class, err)
			}
			b.SetBytes(n)
		}
	})
}

// BenchmarkViewerMove is the whole client step the repository benchmark
// times on lan_browse, minus the render: a move onto a view set that is
// neither decoded nor cached — fetch, streamed inflate, decode.
func BenchmarkViewerMove(b *testing.B) {
	ca, p, id := benchAgent(b)
	v, err := NewViewer(p, ca)
	if err != nil {
		b.Fatal(err)
	}
	v.MaxDecoded = 1
	sp := p.SetCenterAngles(id)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca.DropCached(id)
		v.mu.Lock()
		delete(v.decoded, id)
		v.order = v.order[:0]
		v.mu.Unlock()
		rec, err := v.MoveTo(ctx, sp)
		if err != nil || rec.Class != AccessWAN {
			b.Fatalf("move: class %v, %v", rec.Class, err)
		}
	}
}
