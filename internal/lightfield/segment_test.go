package lightfield

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"lonviz/internal/codec"
)

// EncodeViewSet cuts every frame once, at the view boundary nearest the
// middle of the payload, and never a set of one view.
func TestEncodeCutsAtTheMiddleView(t *testing.T) {
	for _, c := range []struct {
		p     Params
		first int // the second segment's first view
	}{
		{benchParams(), 18},
		{smallParams(), 4},
		{ScaledParams(45, 2, 6), 2},
		{ScaledParams(45, 1, 8), 0},
	} {
		vs := smoothViewSet(t, c.p, ViewSetID{}, 1, 2)
		frame, err := EncodeViewSet(vs, c.p, codec.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		h, err := codec.ReadHeader(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		m, _ := maskCache.get(c.p)
		want := []int{h.Len}
		if c.first > 0 {
			want = []int{viewSetHdrLen + c.first*m.stored, (c.p.ViewSetL*c.p.ViewSetL - c.first) * m.stored}
		}
		var got []int
		for _, s := range h.Segs {
			got = append(got, s.Len)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("l=%d: segment lengths %v, want %v", c.p.ViewSetL, got, want)
		}
	}
}

// An LVZ1 frame — one zlib stream, as every frame was before frames were
// cut — decodes to the same pixels through every entry point, the
// inter-view payload included.
func TestLVZ1FrameStillDecodes(t *testing.T) {
	p := smallParams()
	vs := smoothViewSet(t, p, ViewSetID{R: 1, C: 1}, 4, 2)
	payload, err := vs.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := codec.Compress(payload, codec.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame[:4]) != "LVZ1" || flagsOf(payload) != flagInterView {
		t.Fatalf("frame %q with payload flags %d, want LVZ1 around an inter-view payload", frame[:4], flagsOf(payload))
	}
	if got, err := DecodeViewSet(frame, p); err != nil || !got.Equal(vs) {
		t.Errorf("DecodeViewSet: %v, equal=%v", err, err == nil && got.Equal(vs))
	}
	if got, err := DecodeViewSetFrom(iotest.OneByteReader(bytes.NewReader(frame)), p); err != nil || !got.Equal(vs) {
		t.Errorf("DecodeViewSetFrom one byte at a time: %v, equal=%v", err, err == nil && got.Equal(vs))
	}
	if got, err := codec.Decompress(frame); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("codec.Decompress: %v, equal=%v", err, bytes.Equal(got, payload))
	}
}

// A segment table that claims more compressed bytes than its segment can
// take is refused before the arrival buffer is allocated.
func TestLyingSegmentTableBuysNoMemory(t *testing.T) {
	p := fuzzParams()
	_, frames := testFrames(t, p)
	bad := append([]byte(nil), frames["flag1"]...)
	binary.LittleEndian.PutUint32(bad[14:], 1<<31-1)
	DecodeViewSet(frames["flag1"], p) // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	vs, err := DecodeViewSet(bad, p)
	runtime.ReadMemStats(&after)
	if err == nil || vs != nil {
		t.Fatal("a frame claiming 2 GiB of compressed bytes decoded")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Errorf("refusing it allocated %d bytes", d)
	}
}

// failingReader delivers data and then fails.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data[:min(len(r.data), 97)])
	r.data = r.data[n:]
	return n, nil
}

// A source that fails inside either segment fails the decode, whichever
// goroutine meets the failure and however many processors there are.
func TestDecodeFailsInEitherSegment(t *testing.T) {
	p := smallParams()
	vs := smoothViewSet(t, p, ViewSetID{R: 1, C: 2}, 9, 2)
	frame, err := EncodeViewSet(vs, p, codec.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	h, err := codec.ReadHeader(bytes.NewReader(frame))
	if err != nil || len(h.Segs) != 2 {
		t.Fatalf("%d segments (%v), want 2", len(h.Segs), err)
	}
	seg1 := len(frame) - h.Segs[1].CompLen // where the second stream starts
	boom := errors.New("source failed")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for name, at := range map[string]int{
			"inside segment 0": seg1 / 2,
			"inside segment 1": (seg1 + len(frame)) / 2,
			"at the last byte": len(frame) - 1,
		} {
			old, _ := DecodeViewSet(frame, p)
			got, err := DecodeViewSetInto(&failingReader{data: frame[:at], err: boom}, p, old)
			if err == nil || got != nil {
				t.Errorf("GOMAXPROCS %d, %s: vs=%v err=%v, want an error and no view set", procs, name, got != nil, err)
			}
		}
	}
}

// gatedReader delivers head, then blocks in Read until the gate opens, then
// delivers tail.
type gatedReader struct {
	head, tail []byte
	gate       chan struct{}
	blocked    chan struct{}
}

func (r *gatedReader) Read(p []byte) (int, error) {
	if len(r.head) > 0 {
		n := copy(p, r.head)
		r.head = r.head[n:]
		return n, nil
	}
	if r.blocked != nil {
		close(r.blocked)
		r.blocked = nil
		<-r.gate
	}
	if len(r.tail) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.tail)
	r.tail = r.tail[n:]
	return n, nil
}

// A decode that fails while its source is still blocked returns with its
// lanes ended and its set untouched from then on; the pump stays in Read,
// and when Read returns it writes into its own arrival buffer, which was
// abandoned, not pooled: the decodes running meanwhile use buffers of their
// own (the race detector is the judge) and still decode correctly. Once the
// source ends nothing the decode started is left running.
func TestDecodeLeavesNothingBehind(t *testing.T) {
	p := smallParams()
	vs := smoothViewSet(t, p, ViewSetID{R: 0, C: 1}, 5, 2)
	good, err := EncodeViewSet(vs, p, codec.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose first segment inflates to a wrong view-set magic: the
	// decode fails once that segment is in, while the source holds the
	// second's.
	payload, _ := vs.Marshal(p)
	payload[0] = 'X'
	h, _ := codec.ReadHeader(bytes.NewReader(good))
	bad, err := codec.Compress(payload, codec.DefaultCompression, h.Segs[0].Len)
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := codec.ReadHeader(bytes.NewReader(bad))
	seg1 := len(bad) - hb.Segs[1].CompLen
	baseline := runtime.NumGoroutine()
	old, _ := DecodeViewSet(good, p)
	snapshot := old.Views[len(old.Views)-1].Clone()
	r := &gatedReader{head: bad[:seg1+3], tail: bytes.Repeat([]byte{0xFF}, 2*len(bad)), gate: make(chan struct{}), blocked: make(chan struct{})}
	blocked := r.blocked
	got, err := DecodeViewSetInto(r, p, old)
	if err == nil || got != nil {
		t.Fatalf("vs=%v err=%v, want an error and no view set", got != nil, err)
	}
	<-blocked
	waitGoroutines(t, baseline+1) // the pump, in Read

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got, err := DecodeViewSet(good, p); err != nil || !got.Equal(vs) {
					t.Errorf("a decode beside the abandoned pump: %v", err)
					return
				}
			}
		}()
	}
	close(r.gate)
	wg.Wait()
	waitGoroutines(t, baseline)
	if !old.Views[len(old.Views)-1].Equal(snapshot) {
		t.Error("the failed decode's set changed after it returned")
	}
}

// waitGoroutines waits for the goroutine count to fall to n, as the
// overload end-to-end test's leak check does.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now, want %d\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A warm decode into a recycled set allocates only the frame's bookkeeping
// (header, stream buffer, readers, the lane and its channel), a fixed
// handful whatever the number of deflate blocks: the inflaters and their
// Huffman tables come from a pool, and segments inflate into pooled
// buffers.
func TestWarmDecodeAllocatesPerFrameNotPerBlock(t *testing.T) {
	p := benchParams()
	gen, err := NewProceduralGenerator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := gen.GenerateViewSet(context.Background(), ViewSetID{R: 3, C: 5})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeViewSet(vs, p, codec.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	set, err := DecodeViewSet(frame, p)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 32
	allocs := testing.AllocsPerRun(20, func() {
		if set, err = DecodeViewSetInto(bytes.NewReader(frame), p, set); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("a warm decode into a recycled set allocated %.0f times, want at most %d", allocs, bound)
	}
	if !set.Equal(vs) {
		t.Error("the recycled set decoded to other pixels")
	}
}
