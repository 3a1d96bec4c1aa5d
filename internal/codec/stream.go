package codec

import (
	"fmt"
	"io"
	"sync"
)

// StreamBuffer couples a buffer being filled in order with readers that
// want its bytes as they land: the writer publishes each longer prefix with
// Advance, and readers see it at once while the rest is still coming. A
// lors.DownloadInto in flight is one such writer (wire its OnPrefix to
// Advance: readers see each extent the moment its checksum passes), and a
// Frame's pump copying a frame off its source is another. This is what lets
// a view set inflate before its last stripe lands, without the bytes ever
// being copied into a pipe — readers share the one buffer.
//
// The zero value is not usable; call NewStreamBuffer. One writer
// (Advance/Fail) and any number of readers may run concurrently.
type StreamBuffer struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
	n    int   // published contiguous prefix
	err  error // terminal failure, sticky
}

// NewStreamBuffer wraps the buffer a writer is filling.
func NewStreamBuffer(buf []byte) *StreamBuffer {
	s := &StreamBuffer{buf: buf}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Advance publishes that buf[:n] is final. It is shaped to be used directly
// as lors.DownloadOptions.OnPrefix. n never decreases.
func (s *StreamBuffer) Advance(n int64) {
	s.mu.Lock()
	if int(n) > s.n {
		s.n = int(n)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Fail terminates the stream: blocked and future reads past the published
// prefix return err. Call it when the writer stops short, so readers don't
// wait forever; io.EOF says the stream simply ended there.
func (s *StreamBuffer) Fail(err error) {
	if err == nil {
		err = fmt.Errorf("codec: stream failed")
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Bytes returns the shared buffer. Only the published prefix is
// meaningful; callers that waited for a reader's EOF may use all of it.
func (s *StreamBuffer) Bytes() []byte { return s.buf }

// Reader returns an independent cursor over the whole stream.
func (s *StreamBuffer) Reader() *StreamReader { return s.Section(0, len(s.buf)) }

// Section returns an independent cursor over buf[off:end]. Reads block
// until published bytes are available, return io.EOF at end, and surface
// the Fail error once the published prefix is exhausted.
func (s *StreamBuffer) Section(off, end int) *StreamReader {
	return &StreamReader{s: s, win: s.buf[:off], pos: off, end: end}
}

// StreamReader is a cursor over a StreamBuffer. A segment's inflater reads
// the window it last saw in place, eight bytes at a time, and takes the
// lock (wait) only when it has used that window up; Read and ReadByte do
// the same for other readers.
type StreamReader struct {
	s   *StreamBuffer
	win []byte // buf up to what was published and inside the section when last looked
	pos int
	end int
	// A Frame allocates its segments' cursors one after the other, and
	// each is read on a core of its own: the padding keeps one's fields
	// off the cache line the next one's pos is written to. Without it, a
	// two-lane decode on a 2-core VM, when its inflater still read a byte
	// per call, spent three times as long reading input.
	_ [64]byte
}

// wait blocks until bytes past pos are published, then widens win.
func (r *StreamReader) wait() error {
	if r.pos >= r.end {
		return io.EOF
	}
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for r.pos >= s.n {
		if s.err != nil {
			return s.err
		}
		s.cond.Wait()
	}
	r.win = s.buf[:min(s.n, r.end)]
	return nil
}

// Read implements io.Reader.
func (r *StreamReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.win) {
		if err := r.wait(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.win[r.pos:])
	r.pos += n
	return n, nil
}

// ReadByte implements io.ByteReader.
func (r *StreamReader) ReadByte() (byte, error) {
	if r.pos < len(r.win) {
		b := r.win[r.pos]
		r.pos++
		return b, nil
	}
	if err := r.wait(); err != nil {
		return 0, err
	}
	return r.ReadByte()
}
