package lightfield

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"lonviz/internal/codec"
)

// EncodeViewSet marshals and losslessly compresses a view set for network
// transfer or depot storage — the wire representation used throughout the
// streaming system. level is a codec compression level
// (codec.DefaultCompression when unsure).
//
// The frame is cut in two at the view boundary nearest the middle of the
// payload, so a client inflates the halves on two cores at once. The cut
// leaves the payload as it is: the residual chain runs across it, and the
// second half's first view is still predicted from the first half's last.
// A set of fewer than two views stays one segment.
func EncodeViewSet(vs *ViewSet, p Params, level int) ([]byte, error) {
	raw, err := vs.Marshal(p)
	if err != nil {
		return nil, err
	}
	m, err := maskCache.get(p)
	if err != nil {
		return nil, err
	}
	var cuts []int
	if views := p.ViewSetL * p.ViewSetL; views >= 2 && m.stored > 0 {
		k := min(max((len(raw)/2-viewSetHdrLen+m.stored/2)/m.stored, 1), views-1)
		cuts = append(cuts, viewSetHdrLen+k*m.stored)
	}
	return codec.Compress(raw, level, cuts...)
}

// MaxFrameLen is the size of the largest frame DecodeViewSet accepts under
// p: a client can refuse a longer object before it allocates anything for
// it.
func (p Params) MaxFrameLen() (int, error) {
	m, err := maskCache.get(p)
	if err != nil {
		return 0, err
	}
	l2 := p.ViewSetL * p.ViewSetL
	return codec.Bound(viewSetHdrLen+l2*m.stored, l2), nil
}

// DecodeViewSet reverses EncodeViewSet, validating the checksums.
func DecodeViewSet(frame []byte, p Params) (*ViewSet, error) {
	return DecodeViewSetFrom(bytes.NewReader(frame), p)
}

// DecodeViewSetFrom is DecodeViewSet over an incrementally arriving
// frame: inflation proceeds as r delivers bytes, so a reader backed by an
// in-flight download overlaps decompression with communication. Inflated
// bytes go straight into the views (readViewSet), with no buffer of the
// whole payload in between; the view set is returned only once every
// segment's length, end and CRC-32 are confirmed and r has ended where the
// frame does.
func DecodeViewSetFrom(r io.Reader, p Params) (*ViewSet, error) {
	return DecodeViewSetInto(r, p, nil)
}

// DecodeViewSetInto is DecodeViewSetFrom into the images of old, when old
// (nil is allowed) is a view set an earlier decode under p filled, or
// half filled before it failed, and that nobody reads any more: a browsing
// client then allocates no pixels per move. A decode writes every stored
// pixel of every view and nothing else, so what old held is gone and its
// background is still the black NewViewSet gave it, with no clearing. After
// an error old holds a mix of both payloads and is good only for recycling
// again.
//
// Every segment inflates in place into a pooled buffer of its own, as its
// bytes arrive: the first on the calling goroutine, whose loop places each
// view the moment it is inflated, every later one on a lane of its own,
// whose views the loop places when it reaches them. Lanes write only their
// buffers, and all have ended when DecodeViewSetInto returns.
func DecodeViewSetInto(r io.Reader, p Params, old *ViewSet) (vs *ViewSet, err error) {
	m, err := maskCache.get(p)
	if err != nil {
		return nil, err
	}
	var firsts []int
	f, err := codec.OpenFrame(r, func(h codec.Header) (err error) {
		firsts, err = segmentViews(h, p, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	lanes := make([]*lane, len(firsts))
	for i := 1; i < len(lanes); i++ {
		lanes[i] = startLane(f, i)
	}
	buf0 := getBuf(f.Segs[0].Len)
	seg0 := f.Segment(0, *buf0)
	defer func() {
		seg0.Close()
		if err = f.Close(err); err != nil {
			vs = nil
		}
		for _, ln := range lanes[1:] {
			<-ln.done
			segBufs.Put(ln.buf)
		}
		segBufs.Put(buf0)
	}()
	head, err := seg0.Next(viewSetHdrLen)
	if err != nil {
		return nil, fmt.Errorf("lightfield: view set header: %w", err)
	}
	seg := 0 // the segment of the view last asked for
	vs, err = readViewSet(head, p, m, old, func(k int) ([]byte, error) {
		for seg+1 < len(firsts) && k >= firsts[seg+1] {
			seg++
			<-lanes[seg].done
			if lanes[seg].err != nil {
				return nil, lanes[seg].err
			}
		}
		if seg == 0 {
			return seg0.Next(m.stored)
		}
		return (*lanes[seg].buf)[(k-firsts[seg])*m.stored:][:m.stored], nil
	})
	if err != nil {
		return nil, err
	}
	if err := seg0.Close(); err != nil {
		return nil, err
	}
	return vs, nil
}

// segmentViews checks that a frame's payload is as long as p implies and
// that its segments cut it at view boundaries, each holding at least one
// view (so there are at most L² of them), and returns the index of each
// segment's first view.
func segmentViews(h codec.Header, p Params, m *viewMask) ([]int, error) {
	if err := checkPayloadLen(h.Len, p, m); err != nil {
		return nil, err
	}
	firsts := make([]int, len(h.Segs))
	off := 0
	for i := 1; i < len(h.Segs); i++ {
		off += h.Segs[i-1].Len
		v := off - viewSetHdrLen
		if m.stored == 0 || v%m.stored != 0 || v/m.stored <= firsts[i-1] || v/m.stored >= p.ViewSetL*p.ViewSetL {
			return nil, fmt.Errorf("lightfield: frame segment %d starts at payload byte %d, not at a view boundary past segment %d's first view",
				i, off, i-1)
		}
		firsts[i] = v / m.stored
	}
	return firsts, nil
}

// segBufs hold segments' payloads, which their inflaters write in place:
// the first segment's, whose views the decode loop places as they arrive,
// and the residuals of the segments the lanes inflate.
var segBufs sync.Pool

func getBuf(n int) *[]byte {
	b, _ := segBufs.Get().(*[]byte)
	if b == nil || cap(*b) < n {
		s := make([]byte, n)
		b = &s
	}
	*b = (*b)[:n]
	return b
}

// A lane inflates one segment after the first into a pooled buffer.
type lane struct {
	buf  *[]byte
	done chan struct{}
	err  error // valid once done is closed
}

func startLane(f *codec.Frame, i int) *lane {
	ln := &lane{buf: getBuf(f.Segs[i].Len), done: make(chan struct{})}
	d := f.Segment(i, *ln.buf)
	go func() {
		defer close(ln.done)
		_, err := d.Next(len(*ln.buf))
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		ln.err = err
	}()
	return ln
}
