// Package bufpool is the shared buffer pool of the zero-copy data plane.
//
// Every hot-path payload in the stack — an IBP LOAD body, a lors stripe,
// a compressed view-set frame mid-decode — used to be a fresh make([]byte)
// that lived for one call and went straight to the garbage collector. The
// pool recycles those buffers through power-of-two size classes (4 KiB up
// to 16 MiB) so a steady-state session allocates its working set once.
//
// The contract is the usual one for pooled memory:
//
//   - Get(n) returns a slice of length n whose contents are arbitrary
//     (callers must not assume zeroing).
//   - Put(b) recycles the buffer. The caller must not touch b (or any
//     slice aliasing it) afterwards. Buffers whose capacity is not an
//     exact size class — subslices, appended-over slices, foreign
//     allocations — are dropped silently, so Put is always safe to call.
//   - Buffers that outlive the request (cache entries, published frames)
//     must NOT come from the pool: keep them privately allocated, or the
//     next Get would hand out aliased memory.
//
// Accounting is atomic counters bridged onto an obs registry by
// RegisterMetrics (bufpool.* families). CopyTracked is the instrumented
// replacement for copy() on data-plane paths: the bytes_copied counter it
// feeds is the residual memcpy budget of the zero-copy plane, and the
// benchmark-facing guard tests pin it near zero for pipelined downloads.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"lonviz/internal/obs"
)

const (
	// minBits..maxBits bound the pooled size classes: 1<<12 = 4 KiB
	// (smaller buffers are cheaper to allocate than to synchronize on)
	// up to 1<<24 = 16 MiB (a whole large view set).
	minBits    = 12
	maxBits    = 24
	numClasses = maxBits - minBits + 1
)

// MaxPooled is the largest request the pool will recycle; bigger Gets
// allocate directly and count as oversize.
const MaxPooled = 1 << maxBits

var classes [numClasses]sync.Pool

var (
	gets        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	oversize    atomic.Int64
	bytesCopied atomic.Int64
)

// classFor returns the size-class index able to hold n bytes, or -1 when
// n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minBits {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b > maxBits {
		return -1
	}
	return b - minBits
}

// Get returns a buffer of length n (capacity rounded up to the size
// class). Contents are arbitrary. For n above MaxPooled it falls back to
// a plain allocation that Put will drop.
func Get(n int) []byte {
	gets.Add(1)
	c := classFor(n)
	if c < 0 {
		oversize.Add(1)
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		return (*(v.(*[]byte)))[:n]
	}
	misses.Add(1)
	return make([]byte, n, 1<<(c+minBits))
}

// Put recycles b for a future Get. Buffers whose capacity is not an
// exact size class are dropped, so Put never poisons a class with a
// short buffer. nil and empty buffers are ignored.
func Put(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	idx := bits.TrailingZeros(uint(c)) - minBits
	if idx < 0 || idx >= numClasses {
		return
	}
	puts.Add(1)
	b = b[:c]
	classes[idx].Put(&b)
}

// CopyTracked is copy() with accounting: every byte moved through it
// lands on the bufpool.bytes_copied counter. Data-plane code uses it at
// the few sites where a copy is still unavoidable (racing replicas,
// serial-fallback loads), so the metric measures exactly the memcpy work
// the zero-copy plane has not eliminated.
func CopyTracked(dst, src []byte) int {
	n := copy(dst, src)
	bytesCopied.Add(int64(n))
	return n
}

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	Gets        int64
	Misses      int64
	Puts        int64
	Oversize    int64
	BytesCopied int64
}

// ReadStats returns the current counter values.
func ReadStats() Stats {
	return Stats{
		Gets:        gets.Load(),
		Misses:      misses.Load(),
		Puts:        puts.Load(),
		Oversize:    oversize.Load(),
		BytesCopied: bytesCopied.Load(),
	}
}

// RegisterMetrics bridges the pool counters onto reg (scraped as
// bufpool.* at /metrics); passing nil bridges into obs.Default(). The
// pool is process-global, so one registration per process is enough.
func RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	reg.RegisterSnapshot("bufpool", func() map[string]float64 {
		st := ReadStats()
		return map[string]float64{
			"gets":         float64(st.Gets),
			"misses":       float64(st.Misses),
			"puts":         float64(st.Puts),
			"oversize":     float64(st.Oversize),
			"bytes_copied": float64(st.BytesCopied),
		}
	})
}
