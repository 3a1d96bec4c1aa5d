package codec_test

import (
	"bytes"
	"compress/zlib"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/adler32"
	"io"
	"slices"
	"testing"
	"time"

	"lonviz/internal/codec"
	"lonviz/internal/lightfield"
)

// zlibInflate is the oracle: compress/zlib's reading of in, at most limit
// bytes of output, and how many bytes of in it took up.
func zlibInflate(in []byte, limit int) (out []byte, consumed int, err error) {
	br := bytes.NewReader(in)
	zr, err := zlib.NewReader(br)
	if err == nil {
		out, err = io.ReadAll(io.LimitReader(zr, int64(limit)+1))
	}
	return out, len(in) - br.Len(), err
}

// segments returns the zlib streams of a frame, one per segment.
func segments(t testing.TB, frame []byte) [][]byte {
	t.Helper()
	h, err := codec.ReadHeader(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Segs) == 1 {
		return [][]byte{frame[13:]}
	}
	var segs [][]byte
	off := 10 + 12*len(h.Segs)
	for _, s := range h.Segs {
		segs = append(segs, frame[off:off+s.CompLen])
		off += s.CompLen
	}
	return segs
}

// viewSetFrames encodes n view sets of a procedurally generated database.
func viewSetFrames(t testing.TB, p lightfield.Params, n int) [][]byte {
	t.Helper()
	gen, err := lightfield.NewProceduralGenerator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := p.AllViewSets()
	frames := make([][]byte, n)
	for k := range frames {
		vs, err := gen.GenerateViewSet(context.Background(), ids[k*len(ids)/n])
		if err != nil {
			t.Fatal(err)
		}
		if frames[k], err = lightfield.EncodeViewSet(vs, p, codec.DefaultCompression); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// benchParams is the database the repository benchmark browses.
func benchParams() lightfield.Params { return lightfield.ScaledParams(5, 6, 100) }

// zlibStream wraps raw deflate bits in a zlib header and the Adler-32 of
// payload.
func zlibStream(deflate, payload []byte) []byte {
	s := append([]byte{0x78, 0x01}, deflate...)
	return binary.BigEndian.AppendUint32(s, adler32.Checksum(payload))
}

// bitWriter writes deflate's bit order: fields from the low bit up,
// Huffman codes from their high bit.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

func (w *bitWriter) code(c uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.bits(c>>uint(i)&1, 1)
	}
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w.out
}

// fixedMatch is a stream of one fixed-code block: the literals of prefix,
// one match of length 3 to 10 reaching back len(prefix) (1 to 4) bytes,
// and twenty literals, so that the match is not near the end of the
// output.
func fixedMatch(prefix string, length int) []byte {
	var w bitWriter
	w.bits(1, 1)
	w.bits(1, 2)
	payload := []byte(prefix)
	for _, c := range payload {
		w.code(0x30+uint64(c), 8)
	}
	w.code(uint64(length-2), 7) // symbol 254+length
	w.code(uint64(len(prefix)-1), 5)
	for i := 0; i < length; i++ {
		payload = append(payload, payload[len(payload)-len(prefix)])
	}
	for c := byte('A'); c < 'A'+20; c++ {
		w.code(0x30+uint64(c), 8)
		payload = append(payload, c)
	}
	w.code(0, 7)
	return zlibStream(w.bytes(), payload)
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Streams in stored, fixed and dynamic blocks from another zlib than Go's,
// and one asking for a preset dictionary.
var (
	zlibFixed   = mustHex("789ccb48cdc9c957c8402775147232d3334a14d23253735200f6520d39")
	zlibStored  = mustHex("7801011200edff73746f72656420626c6f636b20627974657343150704")
	zlibHuffman = mustHex("780105c1310100000c02a0ac3813d8ff18c89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89ccac89cca3cf058d869")
	zlibDict    = mustHex("78bb024d0127")
)

// refusals are streams compress/zlib refuses, each for one reason.
func refusals() map[string][]byte {
	flip := func(b []byte, i int, x byte) []byte {
		b = append([]byte(nil), b...)
		b[(i+len(b))%len(b)] ^= x
		return b
	}
	dynamicHeader := func(clen []uint64) []byte {
		var w bitWriter
		w.bits(1, 1) // final
		w.bits(2, 2) // dynamic
		w.bits(0, 5) // 257 literal/length codes
		w.bits(0, 5) // 1 distance code
		w.bits(uint64(len(clen)-4), 4)
		for _, l := range clen {
			w.bits(l, 3)
		}
		w.bits(0, 32) // enough bits that only the code can be at fault
		return zlibStream(w.bytes(), nil)
	}
	var far bitWriter
	far.bits(1, 1)
	far.bits(1, 2)         // fixed
	far.code(0b0000001, 7) // length 3
	far.code(0, 5)         // distance 1, before the first byte
	far.code(0, 7)         // end of block
	return map[string][]byte{
		"over-subscribed code":    dynamicHeader([]uint64{1, 1, 1, 1}),
		"incomplete code":         dynamicHeader([]uint64{2, 2, 0, 0}),
		"distance before start":   zlibStream(far.bytes(), nil),
		"bad stored length":       flip(zlibStored, 5, 0x01),
		"wrong Adler-32":          flip(zlibStored, -1, 0x01),
		"FDICT set":               zlibDict,
		"bad header check":        flip(zlibFixed, 1, 0x01),
		"reserved block type":     zlibStream([]byte{0x07}, nil),
		"truncated":               zlibFixed[:len(zlibFixed)-5],
		"literal/length code 286": zlibStream([]byte{0x1b, 0x00, 0x03, 0, 0, 0, 0}, nil),
	}
}

// TestInflateRefusesWhatZlibRefuses: each stream is refused by both
// decoders, and, unless it is cut short, for what it holds rather than for
// running out of input.
func TestInflateRefusesWhatZlibRefuses(t *testing.T) {
	for name, in := range refusals() {
		partial, _, err := zlibInflate(in, 1<<20)
		if err == nil {
			t.Errorf("%s: compress/zlib accepts it; the case is wrong", name)
		}
		_, err = codec.Inflate(in, make([]byte, len(partial)))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if errors.Is(err, io.ErrUnexpectedEOF) != (name == "truncated") {
			t.Errorf("%s: refused with %v", name, err)
		}
	}
	// A preset dictionary whose Adler-32 is the empty dictionary's is no
	// dictionary: compress/zlib reads on, and so must the codec.
	var w bitWriter
	w.bits(1, 1)
	w.bits(1, 2)
	w.code(0, 7)
	empty := append([]byte{0x78, 0xbb, 0, 0, 0, 1}, w.bytes()...)
	empty = binary.BigEndian.AppendUint32(empty, 1)
	if _, _, err := zlibInflate(empty, 0); err != nil {
		t.Fatalf("compress/zlib refuses the empty dictionary: %v", err)
	}
	if n, err := codec.Inflate(empty, nil); err != nil || n != len(empty) {
		t.Errorf("the empty dictionary: %d of %d bytes, %v", n, len(empty), err)
	}
}

// FuzzInflate holds the codec's decoder to compress/zlib: for any input
// both refuse it, or both accept it with the same output and the same
// number of compressed bytes taken up.
func FuzzInflate(f *testing.F) {
	for _, frame := range viewSetFrames(f, lightfield.ScaledParams(30, 3, 12), 2) {
		for _, s := range segments(f, frame) {
			f.Add(s)
		}
	}
	compress := func(payload []byte, level int) []byte {
		var b bytes.Buffer
		zw, _ := zlib.NewWriterLevel(&b, level)
		zw.Write(payload)
		zw.Close()
		return b.Bytes()
	}
	payload := bytes.Repeat([]byte("view set residuals 0000000011112222 "), 40)
	for _, level := range []int{zlib.NoCompression, zlib.BestSpeed, zlib.HuffmanOnly, zlib.BestCompression} {
		f.Add(compress(payload, level))
	}
	// Short matches at the very start, at distances under eight.
	for _, prefix := range []string{"a", "ab", "abc", "abcd"} {
		for length := 3; length <= 10; length++ {
			f.Add(fixedMatch(prefix, length))
		}
	}
	f.Add(zlibFixed)
	f.Add(zlibStored)
	f.Add(zlibHuffman)
	for _, in := range refusals() {
		f.Add(in)
	}
	const limit = 1 << 20
	f.Fuzz(func(t *testing.T, in []byte) {
		want, wantN, wantErr := zlibInflate(in, limit)
		if len(want) > limit {
			t.Skip("inflates past the limit")
		}
		got := make([]byte, len(want))
		n, err := codec.Inflate(in, got)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("codec: %v; compress/zlib: %v", err, wantErr)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("accepted with other output: %d bytes against %d", len(got), len(want))
		case err == nil && n != wantN:
			t.Fatalf("took up %d bytes, compress/zlib %d", n, wantN)
		}
	})
}

// TestSegmentInflatesBeforeItArrives: a real segment is read while its
// frame is still being published one 64 KiB stripe at a time, and the
// first view's bytes are handed out before the stripe that completes the
// segment lands.
func TestSegmentInflatesBeforeItArrives(t *testing.T) {
	frame := viewSetFrames(t, benchParams(), 2)[1] // a set at the equator
	payload, err := codec.Decompress(frame)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := codec.ReadHeader(bytes.NewReader(frame))
	views := 36
	first := 16 + (len(payload)-16)/views // the view-set header and the first view
	seg0End := len(frame) - h.Segs[1].CompLen
	const stripe = 64 << 10
	if seg0End <= stripe {
		t.Fatalf("segment 0 ends at byte %d, inside the first stripe", seg0End)
	}
	sb := codec.NewStreamBuffer(frame)
	defer sb.Fail(io.EOF)
	published := stripe
	sb.Advance(int64(published))
	fr, err := codec.OpenFrame(sb.Reader(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, h.Segs[0].Len)
	seg := fr.Segment(0, dst)
	got := make(chan error, 1)
	go func() {
		b, err := seg.Next(first)
		if err == nil && !bytes.Equal(b, payload[:first]) {
			err = errors.New("wrong bytes")
		}
		got <- err
	}()
	for published+stripe < seg0End {
		published += stripe
		sb.Advance(int64(published))
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the first view was not handed out with %d of segment 0's %d bytes published", published, seg0End)
	}
	sb.Advance(int64(len(frame)))
	if _, err := seg.Next(len(dst) - first); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, payload[:len(dst)]) {
		t.Error("segment 0 inflated to other bytes")
	}
	for i := 1; i < len(h.Segs); i++ {
		d := fr.Segment(i, make([]byte, h.Segs[i].Len))
		d.Next(h.Segs[i].Len)
		d.Close()
	}
	if err := fr.Close(nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkInflateSegments inflates the segments of four view sets of the
// benchmark's database, with the codec's decoder and, for reference,
// compress/zlib.
func BenchmarkInflateSegments(b *testing.B) {
	var segs [][]byte
	var raw []int
	for _, frame := range viewSetFrames(b, benchParams(), 4) {
		h, _ := codec.ReadHeader(bytes.NewReader(frame))
		for i, s := range segments(b, frame) {
			segs = append(segs, s)
			raw = append(raw, h.Segs[i].Len)
		}
	}
	total := 0
	for _, n := range raw {
		total += n
	}
	dst := make([]byte, slices.Max(raw))
	zr, _ := zlib.NewReader(bytes.NewReader(segs[0]))
	for _, c := range []struct {
		name    string
		inflate func(in, dst []byte) error
	}{
		{"codec", func(in, dst []byte) error { _, err := codec.Inflate(in, dst); return err }},
		{"zlib", func(in, dst []byte) error {
			if err := zr.(zlib.Resetter).Reset(bytes.NewReader(in), nil); err != nil {
				return err
			}
			_, err := io.ReadFull(zr, dst)
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(total / len(segs)))
			for i := 0; i < b.N; i++ {
				k := i % len(segs)
				if err := c.inflate(segs[k], dst[:raw[k]]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
