package bufpool

import (
	"testing"

	"lonviz/internal/obs"
)

func TestClassForBounds(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{1, 0},
		{1 << minBits, 0},
		{1<<minBits + 1, 1},
		{64 * 1024, 16 - minBits},
		{64*1024 + 1, 17 - minBits},
		{MaxPooled, numClasses - 1},
		{MaxPooled + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	b := Get(5000)
	if len(b) != 5000 {
		t.Fatalf("len = %d, want 5000", len(b))
	}
	if cap(b) != 8192 {
		t.Fatalf("cap = %d, want 8192 (size class)", cap(b))
	}
	b[0], b[4999] = 0xAA, 0xBB
	Put(b)
	// A subsequent Get of the same class may or may not observe the
	// recycled buffer (sync.Pool gives no guarantee), but it must have
	// the right length either way.
	b2 := Get(6000)
	if len(b2) != 6000 || cap(b2) != 8192 {
		t.Fatalf("recycled get: len=%d cap=%d", len(b2), cap(b2))
	}
	Put(b2)
}

func TestPutDropsNonClassCapacities(t *testing.T) {
	before := ReadStats().Puts
	Put(nil)
	Put(make([]byte, 100))      // cap 100: not a power of two
	Put(make([]byte, 0, 1<<8))  // below the smallest class
	Put(make([]byte, 0, 1<<30)) // above the largest class
	if got := ReadStats().Puts - before; got != 0 {
		t.Fatalf("Puts advanced by %d on non-class buffers, want 0", got)
	}
}

func TestOversizeFallsBackToAllocation(t *testing.T) {
	before := ReadStats().Oversize
	b := Get(MaxPooled + 1)
	if len(b) != MaxPooled+1 {
		t.Fatalf("oversize len = %d", len(b))
	}
	if got := ReadStats().Oversize - before; got != 1 {
		t.Fatalf("Oversize advanced by %d, want 1", got)
	}
}

func TestCopyTrackedCounts(t *testing.T) {
	before := ReadStats().BytesCopied
	dst := make([]byte, 64)
	n := CopyTracked(dst, []byte("hello"))
	if n != 5 {
		t.Fatalf("CopyTracked returned %d, want 5", n)
	}
	if got := ReadStats().BytesCopied - before; got != 5 {
		t.Fatalf("BytesCopied advanced by %d, want 5", got)
	}
}

// TestWarmPoolAllocs pins the steady-state cost of the pool: once a size
// class is warm, a Get must not allocate a payload buffer — the only
// permitted allocation per Get+Put cycle is the 24-byte slice-header box
// Put hands to sync.Pool. A regression here (e.g. Put silently dropping
// class-capacity buffers, or Get cloning) would put every view set back
// on the allocator and show up as GC pressure under fleet load.
func TestWarmPoolAllocs(t *testing.T) {
	// Warm the 64 KiB class well past any per-P pool shard.
	warm := make([][]byte, 64)
	for i := range warm {
		warm[i] = Get(64 * 1024)
	}
	for _, b := range warm {
		Put(b)
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := Get(64 * 1024)
		b[0] = 1
		Put(b)
	})
	if allocs > 1 {
		t.Fatalf("warm Get+Put averaged %.1f allocs/op, want <= 1 (header box only)", allocs)
	}
}

func TestRegisterMetricsBridges(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	Get(1024) // ensure non-zero counters
	snap := reg.Snapshot()
	for _, name := range []string{
		obs.MBufpoolGets, obs.MBufpoolMisses,
		obs.MBufpoolPuts, obs.MBufpoolOversize, obs.MBufpoolBytesCopied,
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("snapshot missing %s", name)
		}
	}
}
