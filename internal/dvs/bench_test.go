package dvs

import (
	"bytes"
	"context"
	"testing"

	"lonviz/internal/obs"
)

// BenchmarkGet is one directory lookup over a kept loopback connection: a
// two-replica answer of exNode documents the size the repository benchmark's
// database publishes (≈ 1.5 KiB each).
func BenchmarkGet(b *testing.B) {
	s := NewServer("")
	s.Obs = obs.NewRegistry()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	k := Key{Dataset: "bench", ViewSet: "r03c07"}
	xml := bytes.Repeat([]byte("<extent/>"), 170)
	for i := 0; i < 2; i++ {
		if err := s.Put(k, xml); err != nil {
			b.Fatal(err)
		}
	}
	cl := &Client{Addr: addr}
	defer cl.CloseIdle()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, err := cl.Get(ctx, k)
		if err != nil || len(reps) != 2 {
			b.Fatalf("get: %d replicas, %v", len(reps), err)
		}
	}
}
