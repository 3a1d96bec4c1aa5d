// Package codec implements the lossless compression framing used for view
// sets on the wire and in depot storage. The paper compresses each view set
// with zlib (its reference [1]); we add a small frame around the zlib
// streams carrying the lengths and CRC-32s, so corruption surfaces as an
// error rather than garbage pixels.
//
// A frame holds its payload in one or more segments, each an independent
// zlib stream, so a reader can inflate them on as many goroutines.
//
//	LVZ1 (one segment): magic "LVZ1", uint8 level, uint32 payload length,
//	    uint32 CRC-32 (IEEE) of the payload, then the zlib stream.
//	LVZ2 (segmented): magic "LVZ2", uint8 level, uint32 payload length,
//	    uint8 segment count S, then S entries of uint32 payload length,
//	    uint32 compressed length and uint32 CRC-32 of the segment's
//	    payload bytes, then the S zlib streams back to back.
//
// The payload length sits at the same offset in both, so UncompressedLen
// and Ratio read either. Compress writes LVZ1 when given no cuts.
//
// compress/zlib writes the streams; the package's own decoder
// (inflate.go) reads them, straight into each segment's buffer.
package codec

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

const (
	magicLen  = 4
	prefixLen = magicLen + 1 + 4 // magic, level, payload length
	lvz1Len   = prefixLen + 4    // + CRC-32
	entryLen  = 12               // one LVZ2 segment table entry

	// maxSegments is the most segments a frame can be cut into (a byte).
	maxSegments = 255
)

var (
	magicOne = []byte("LVZ1")
	magicSeg = []byte("LVZ2")
)

// headerLen is the size of the header of a frame of segs segments.
func headerLen(segs int) int {
	if segs == 1 {
		return lvz1Len
	}
	return prefixLen + 1 + segs*entryLen
}

// Compression levels re-exported so callers do not import compress/zlib.
const (
	BestSpeed          = zlib.BestSpeed
	DefaultCompression = zlib.DefaultCompression
	BestCompression    = zlib.BestCompression
)

// defaultLevel is what DefaultCompression means here. View-set payloads
// are inter-view residuals (lightfield.Marshal), which deflate's longer
// match searches serve badly: on the benchmark database level 5 gives a
// smaller frame than plain pixels get at 6, in less time, while 6 costs
// 1.7x the deflate time for 4 % fewer bytes (docs/PERFORMANCE.md).
const defaultLevel = 5

// ErrCorrupt is returned when a frame fails structural or checksum
// validation.
var ErrCorrupt = errors.New("codec: corrupt frame")

// streamBound is the most bytes compress/zlib writes for n input bytes: a
// 2-byte header and 4-byte Adler-32, and deflate blocks that are never
// larger than storing their input would be — 5 bytes of stored-block
// header per block of at least 16 KiB input (what is left at Close can be
// smaller), plus the empty final block Close appends and bit padding.
func streamBound(n int) int { return n + n>>10 + 64 }

// Bound returns the size of the largest frame Compress can write for n
// payload bytes cut into at most segs segments. A frame header is held to
// the same arithmetic: no segment's compressed length may exceed what it
// allows for that segment's payload, so a lying header buys no memory.
func Bound(n, segs int) int {
	segs = min(max(segs, 1), maxSegments)
	return headerLen(segs) + streamBound(n) + (segs-1)*streamBound(0)
}

// Compress frames and zlib-compresses data at the given level (use
// DefaultCompression when unsure). With cuts, strictly increasing offsets
// inside data, the payload is written as that many more segments, each
// compressed on its own (LVZ2); without, as one (LVZ1).
func Compress(data []byte, level int, cuts ...int) ([]byte, error) {
	if level == DefaultCompression {
		level = defaultLevel
	}
	if level < zlib.NoCompression || level > zlib.BestCompression {
		return nil, fmt.Errorf("codec: invalid compression level %d", level)
	}
	if len(cuts) >= maxSegments {
		return nil, fmt.Errorf("codec: %d cuts, at most %d segments", len(cuts), maxSegments)
	}
	segs := len(cuts) + 1
	var buf bytes.Buffer
	buf.Grow(headerLen(segs) + len(data)/4)
	hdr := make([]byte, headerLen(segs))
	copy(hdr, magicOne)
	if segs > 1 {
		copy(hdr, magicSeg)
		hdr[prefixLen] = byte(segs)
	}
	hdr[4] = byte(level)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(data)))
	buf.Write(hdr)
	// A deflate writer is over 1 MB of hash tables and window: reuse it.
	pool := &deflaters[level]
	zw, _ := pool.Get().(*zlib.Writer)
	if zw == nil {
		var err error
		if zw, err = zlib.NewWriterLevel(&buf, level); err != nil {
			return nil, err
		}
	}
	defer pool.Put(zw)
	for i, off := 0, 0; i < segs; i++ {
		end := len(data)
		if i < len(cuts) {
			if end = cuts[i]; end <= off || end >= len(data) {
				return nil, fmt.Errorf("codec: cuts %v do not split %d bytes", cuts, len(data))
			}
		}
		seg := data[off:end]
		off = end
		start := buf.Len()
		zw.Reset(&buf)
		if _, err := zw.Write(seg); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		crc := crc32.ChecksumIEEE(seg)
		if segs == 1 {
			binary.LittleEndian.PutUint32(buf.Bytes()[prefixLen:], crc)
			break
		}
		e := buf.Bytes()[prefixLen+1+i*entryLen:]
		binary.LittleEndian.PutUint32(e[0:], uint32(len(seg)))
		binary.LittleEndian.PutUint32(e[4:], uint32(buf.Len()-start))
		binary.LittleEndian.PutUint32(e[8:], crc)
	}
	return buf.Bytes(), nil
}

// deflaters holds idle zlib writers, one pool per level 0..9 (a writer's
// level is fixed when it is made).
var deflaters [zlib.BestCompression + 1]sync.Pool

// Segment is one entry of a frame's segment table.
type Segment struct {
	Len     int    // payload bytes it inflates to
	CompLen int    // its zlib stream's bytes; -1 in LVZ1, whose one stream runs to the frame's end
	CRC     uint32 // CRC-32 (IEEE) of its payload bytes
}

// Header is a parsed frame header.
type Header struct {
	Len  int // payload bytes, all segments together
	Segs []Segment
}

// ReadHeader reads a frame header from r and checks what can be checked
// before any payload: the magic, an LVZ2 segment count of at least 2,
// segment lengths that add up to the payload length, and compressed
// lengths within Bound. It reads LVZ1 as a frame of one segment.
func ReadHeader(r io.Reader) (Header, error) {
	var pre [prefixLen + 1]byte
	short := func(err error) (Header, error) {
		return Header{}, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if _, err := io.ReadFull(r, pre[:prefixLen]); err != nil {
		return short(err)
	}
	h := Header{Len: int(binary.LittleEndian.Uint32(pre[5:]))}
	switch {
	case bytes.Equal(pre[:magicLen], magicOne):
		var crc [4]byte
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			return short(err)
		}
		h.Segs = []Segment{{Len: h.Len, CompLen: -1, CRC: binary.LittleEndian.Uint32(crc[:])}}
		return h, nil
	case !bytes.Equal(pre[:magicLen], magicSeg):
		return Header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if _, err := io.ReadFull(r, pre[prefixLen:]); err != nil {
		return short(err)
	}
	n := int(pre[prefixLen])
	if n < 2 {
		// Compress writes one segment as LVZ1.
		return Header{}, fmt.Errorf("%w: %d segments", ErrCorrupt, n)
	}
	table := make([]byte, n*entryLen)
	if _, err := io.ReadFull(r, table); err != nil {
		return short(err)
	}
	h.Segs = make([]Segment, n)
	sum := 0
	for i := range h.Segs {
		e := table[i*entryLen:]
		s := Segment{
			Len:     int(binary.LittleEndian.Uint32(e[0:])),
			CompLen: int(binary.LittleEndian.Uint32(e[4:])),
			CRC:     binary.LittleEndian.Uint32(e[8:]),
		}
		if s.CompLen > streamBound(s.Len) {
			return Header{}, fmt.Errorf("%w: segment %d: %d compressed bytes for %d", ErrCorrupt, i, s.CompLen, s.Len)
		}
		h.Segs[i], sum = s, sum+s.Len
	}
	if sum != h.Len {
		return Header{}, fmt.Errorf("%w: segments hold %d bytes, header says %d", ErrCorrupt, sum, h.Len)
	}
	return h, nil
}

// Reader inflates one segment into its destination as its bytes arrive
// and holds it to its table entry: Next never yields more than the
// segment's length, and Close reports ErrCorrupt unless exactly that many
// were inflated, the zlib stream ended there (which is where its Adler-32
// is checked), the stream took up its compressed length exactly, and the
// bytes' CRC-32 is the entry's. Bytes a caller consumed before Close are
// unverified until Close returns nil.
type Reader struct {
	src       *StreamReader
	dst       []byte // the segment's payload, inflated in place
	z         *inflater
	n         int   // bytes of dst handed out
	err       error // sticky
	crc, want uint32
	done      func() // tells the Frame the reader is closed; nil once it is
}

// Next inflates the segment's next n bytes, which must be inside its
// length, into its destination and returns them. It returns as soon as
// they are there, waiting for the frame's bytes only as long as they take
// to arrive.
func (d *Reader) Next(n int) ([]byte, error) {
	if d.err != nil {
		return nil, d.err
	}
	// The inflater is taken on the first call, so that a Reader handed to
	// another goroutine touches no byte before that goroutine runs.
	if d.z == nil {
		d.z = getInflater(d.src, d.dst)
	}
	if err := d.z.run(d.n+n, false); err != nil {
		d.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return nil, d.err
	}
	b := d.dst[d.n : d.n+n]
	d.n += n
	d.crc = crc32.Update(d.crc, crc32.IEEETable, b)
	return b, nil
}

// Close verifies the segment (see Reader) and releases the inflater.
// Closing an unfinished or failed Reader is how to abandon it.
func (d *Reader) Close() error {
	if d.done == nil {
		return d.err
	}
	defer func() {
		if d.z != nil {
			putInflater(d.z)
			d.z = nil
		}
		d.done()
		d.done = nil
	}()
	if d.err != nil {
		return d.err
	}
	if d.n != len(d.dst) {
		d.err = fmt.Errorf("%w: %d bytes short of the segment's length", ErrCorrupt, len(d.dst)-d.n)
		return d.err
	}
	if d.z == nil {
		d.z = getInflater(d.src, d.dst)
	}
	// A lying header must not pass: the stream has to end exactly here, and
	// so do its compressed bytes.
	if err := d.z.run(d.n, true); err != nil {
		d.err = fmt.Errorf("%w: payload does not end where the header says (%v)", ErrCorrupt, err)
	} else if _, err := d.z.unread(); err != io.EOF {
		d.err = fmt.Errorf("%w: zlib stream ends before its segment does (%v)", ErrCorrupt, err)
	} else if d.crc != d.want {
		d.err = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return d.err
}

// A Frame is a frame being read from a source: its header, parsed before
// OpenFrame returns, and its body, which a goroutine of the Frame's own (the
// pump) copies from the source into a pooled arrival buffer as the source
// delivers it. Each segment's Reader inflates from that buffer as its bytes
// land, so segments can be inflated on several goroutines at once while a
// download is still coming in, and the source is read exactly once.
type Frame struct {
	Header
	sb      *StreamBuffer
	arrival *[]byte
	starts  []int // each segment's offset in the body
	readers sync.WaitGroup
	pumped  chan struct{}
	pumpErr error // valid once pumped is closed
}

// arrivals holds idle arrival buffers.
var arrivals sync.Pool

// errClosed is what a Frame's readers see of a frame closed under them.
var errClosed = errors.New("codec: frame closed")

// OpenFrame reads a frame's header from r, calls check with it (when not
// nil) before allocating anything for the body, and starts the pump.
// Every OpenFrame that returns a Frame must be followed by its Close.
func OpenFrame(r io.Reader, check func(Header) error) (*Frame, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	if check != nil {
		if err := check(h); err != nil {
			return nil, err
		}
	}
	f := &Frame{Header: h, starts: make([]int, len(h.Segs)), pumped: make(chan struct{})}
	body := 0
	for i, s := range h.Segs {
		f.starts[i] = body
		if s.CompLen < 0 {
			body += streamBound(s.Len)
		} else {
			body += s.CompLen
		}
	}
	f.arrival, _ = arrivals.Get().(*[]byte)
	if f.arrival == nil || cap(*f.arrival) < body {
		b := make([]byte, body)
		f.arrival = &b
	}
	f.sb = NewStreamBuffer((*f.arrival)[:body])
	go f.pump(r)
	return f, nil
}

// pump copies the body from r into the arrival buffer, publishing each
// longer prefix, and then confirms that r ends where the frame does. An LVZ1
// body's length is unknown until r ends, so its buffer is the bound and
// ending short of it is no error.
func (f *Frame) pump(r io.Reader) {
	defer close(f.pumped)
	buf := f.sb.Bytes()
	n := 0
	var err error
	for n < len(buf) && err == nil {
		var k int
		k, err = r.Read(buf[n:])
		n += k
		f.sb.Advance(int64(n))
	}
	var one [1]byte
	for err == nil {
		var k int
		if k, err = r.Read(one[:]); k > 0 {
			err = fmt.Errorf("%w: bytes past the end of the frame", ErrCorrupt)
		}
	}
	if err == io.EOF {
		f.sb.Fail(io.EOF)
		if n < len(buf) && f.Segs[0].CompLen >= 0 {
			f.pumpErr = fmt.Errorf("%w: %d of %d bytes", ErrCorrupt, n, len(buf))
		}
		return
	}
	f.sb.Fail(err)
	f.pumpErr = err
}

// Segment returns a Reader of segment i, which inflates from the arrival
// buffer as its bytes land into dst[:Segs[i].Len] and may be handed to
// another goroutine.
func (f *Frame) Segment(i int, dst []byte) *Reader {
	s := f.Segs[i]
	end := len(f.sb.Bytes())
	if s.CompLen >= 0 {
		end = f.starts[i] + s.CompLen
	}
	f.readers.Add(1)
	return &Reader{src: f.sb.Section(f.starts[i], end), dst: dst[:s.Len], want: s.CRC, done: f.readers.Done}
}

// Close ends the frame and returns the error it ended with. Given the
// error a caller's decode failed with, it wakes any Reader still waiting
// for bytes and returns that error; given nil, it waits for the pump and
// returns what the pump found (a read error, a short body, bytes past the
// end). Either way it returns once every Reader handed out is closed, and
// after that nothing of the frame's writes memory anyone can reach: the
// arrival buffer goes back to the pool, unless the pump is still blocked
// in the source's Read — then it is abandoned to the garbage collector.
func (f *Frame) Close(err error) error {
	if err != nil {
		f.sb.Fail(errClosed)
	}
	f.readers.Wait()
	if err == nil {
		<-f.pumped
		err = f.pumpErr
	}
	select {
	case <-f.pumped:
		arrivals.Put(f.arrival)
	default:
	}
	return err
}

// Decompress validates and decodes a frame produced by Compress.
func Decompress(frame []byte) ([]byte, error) {
	return DecompressFrom(bytes.NewReader(frame))
}

// DecompressFrom is Decompress over a frame read incrementally from r. The
// output buffer is sized exactly from the frame header before inflation
// starts.
func DecompressFrom(r io.Reader) (out []byte, err error) {
	f, err := OpenFrame(r, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err = f.Close(err); err != nil {
			out = nil
		}
	}()
	out = make([]byte, f.Len)
	off := 0
	for i, s := range f.Segs {
		d := f.Segment(i, out[off:])
		_, err := d.Next(s.Len)
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		off += s.Len
	}
	return out, nil
}

// Ratio returns the compression ratio (uncompressed/compressed) of a frame
// without decompressing it. Returns an error for malformed frames.
func Ratio(frame []byte) (float64, error) {
	n, err := UncompressedLen(frame)
	if err != nil {
		return 0, err
	}
	return float64(n) / float64(len(frame)), nil
}

// UncompressedLen returns the original payload length recorded in a frame
// header.
func UncompressedLen(frame []byte) (int, error) {
	if len(frame) < lvz1Len || !bytes.Equal(frame[:magicLen], magicOne) && !bytes.Equal(frame[:magicLen], magicSeg) {
		return 0, ErrCorrupt
	}
	return int(binary.LittleEndian.Uint32(frame[5:9])), nil
}
