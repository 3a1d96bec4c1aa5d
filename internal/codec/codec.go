// Package codec implements the lossless compression framing used for view
// sets on the wire and in depot storage. The paper compresses each view set
// with zlib (its reference [1]); we add a small frame around the zlib
// stream carrying the uncompressed length and a CRC-32 so corruption
// surfaces as an error rather than garbage pixels.
//
// Frame layout: magic "LVZ1", uint8 level, uint32 origLen, uint32 crc32
// (IEEE, of the uncompressed data), then the raw zlib stream.
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

var frameMagic = []byte("LVZ1")

const headerLen = 4 + 1 + 4 + 4

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

// Compress frames and zlib-compresses data at the given level (use
// DefaultCompression when unsure).
func Compress(data []byte, level int) ([]byte, error) {
	if level == DefaultCompression {
		level = defaultLevel
	}
	if level < zlib.NoCompression || level > zlib.BestCompression {
		return nil, fmt.Errorf("codec: invalid compression level %d", level)
	}
	var buf bytes.Buffer
	buf.Grow(headerLen + len(data)/4)
	var hdr [headerLen]byte
	copy(hdr[:], frameMagic)
	hdr[4] = byte(level)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[9:], crc32.ChecksumIEEE(data))
	buf.Write(hdr[:])
	// A deflate writer is over 1 MB of hash tables and window: reuse it.
	pool := &deflaters[level]
	zw, _ := pool.Get().(*zlib.Writer)
	if zw == nil {
		var err error
		if zw, err = zlib.NewWriterLevel(&buf, level); err != nil {
			return nil, err
		}
	} else {
		zw.Reset(&buf)
	}
	defer pool.Put(zw)
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// deflaters holds idle zlib writers, one pool per level 0..9 (a writer's
// level is fixed when it is made); inflaters holds idle zlib readers.
var (
	deflaters [zlib.BestCompression + 1]sync.Pool
	inflaters sync.Pool
)

// Reader inflates one frame as its bytes arrive and holds it to what the
// header promised: Read never yields more than Len bytes, and Close reports
// ErrCorrupt unless exactly that many were inflated, the zlib stream ended
// there, and their CRC-32 is the header's. Bytes a caller consumed before
// Close are unverified until Close returns nil.
type Reader struct {
	zr        io.ReadCloser
	remaining int
	crc, want uint32
}

// NewReader reads and validates the frame header from r. Because zlib
// inflates as input arrives, a reader that tracks a download in progress
// (lors.StreamBuffer) overlaps decompression with communication.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:4], frameMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	d := &Reader{
		remaining: int(binary.LittleEndian.Uint32(hdr[5:9])),
		want:      binary.LittleEndian.Uint32(hdr[9:13]),
	}
	var err error
	if zr, ok := inflaters.Get().(io.ReadCloser); ok {
		d.zr, err = zr, zr.(zlib.Resetter).Reset(r, nil)
	} else {
		d.zr, err = zlib.NewReader(r)
	}
	if err != nil {
		d.release()
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return d, nil
}

// Len returns how many bytes the header says are still to be read.
func (d *Reader) Len() int { return d.remaining }

// Read inflates into p, never past the length the header gives.
func (d *Reader) Read(p []byte) (int, error) {
	if d.remaining == 0 {
		return 0, io.EOF
	}
	if len(p) > d.remaining {
		p = p[:d.remaining]
	}
	n, err := d.zr.Read(p)
	d.remaining -= n
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p[:n])
	if err == io.EOF {
		// Whether the stream may end here is Close's to judge, unless it
		// ended short of the header's length.
		if err = nil; d.remaining > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return n, err
}

// Close verifies the frame (see Reader) and releases the inflater. Closing
// an unfinished or failed Reader is how to abandon it.
func (d *Reader) Close() error {
	if d.zr == nil {
		return nil
	}
	defer d.release()
	if d.remaining != 0 {
		return fmt.Errorf("%w: %d bytes short of the header's length", ErrCorrupt, d.remaining)
	}
	// A lying header must not pass: the stream has to end exactly here,
	// which is also where zlib checks its own Adler-32.
	var one [1]byte
	if n, err := d.zr.Read(one[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("%w: payload does not end where the header says (%v)", ErrCorrupt, err)
	}
	if d.crc != d.want {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return nil
}

func (d *Reader) release() {
	if d.zr != nil {
		inflaters.Put(d.zr)
		d.zr = nil
	}
}

// Decompress validates and decodes a frame produced by Compress.
func Decompress(frame []byte) ([]byte, error) {
	return DecompressFrom(bytes.NewReader(frame))
}

// DecompressFrom is Decompress over a frame read incrementally from r. The
// output buffer is sized exactly from the frame header before inflation
// starts.
func DecompressFrom(r io.Reader) ([]byte, error) {
	d, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	out := make([]byte, d.Len())
	if _, err := io.ReadFull(d, out); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Ratio returns the compression ratio (uncompressed/compressed) of a frame
// without decompressing it. Returns an error for malformed frames.
func Ratio(frame []byte) (float64, error) {
	if len(frame) < headerLen || !bytes.Equal(frame[:4], frameMagic) {
		return 0, ErrCorrupt
	}
	origLen := binary.LittleEndian.Uint32(frame[5:9])
	if len(frame) == 0 {
		return 0, ErrCorrupt
	}
	return float64(origLen) / float64(len(frame)), nil
}

// UncompressedLen returns the original payload length recorded in a frame
// header.
func UncompressedLen(frame []byte) (int, error) {
	if len(frame) < headerLen || !bytes.Equal(frame[:4], frameMagic) {
		return 0, ErrCorrupt
	}
	return int(binary.LittleEndian.Uint32(frame[5:9])), nil
}
