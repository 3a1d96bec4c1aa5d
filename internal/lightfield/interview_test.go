package lightfield

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"

	"lonviz/internal/codec"
)

// marshalFlag0 is Marshal as it stood before inter-view coding: views
// row-major, every masked pixel as is, flags byte 0, the mask read one bit
// at a time. Databases stored by earlier versions hold these payloads.
func marshalFlag0(t testing.TB, vs *ViewSet, p Params) []byte {
	t.Helper()
	buf := append([]byte(nil), viewSetMagic...)
	var hdr [10]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(vs.ID.R))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(vs.ID.C))
	hdr[4] = byte(vs.L)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(vs.Res))
	buf = append(buf, hdr[:]...)
	mask, err := occlusionMask(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range vs.Views {
		for idx := 0; idx < vs.Res*vs.Res; idx++ {
			if mask.Get(idx) {
				buf = append(buf, im.Pix[3*idx], im.Pix[3*idx+1], im.Pix[3*idx+2])
			}
		}
	}
	return buf
}

// smoothViewSet fills vs with views that differ a little from one lattice
// neighbour to the next, the case inter-view coding is for; noise 0 makes
// all views equal.
func smoothViewSet(t testing.TB, p Params, id ViewSetID, seed int64, noise int) *ViewSet {
	t.Helper()
	vs, err := NewViewSet(id, p.ViewSetL, p.Res)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := occlusionMask(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	base := make([]byte, 3*p.Res*p.Res)
	rng.Read(base)
	for k := range vs.Views {
		pix := vs.Views[serpentine(vs.L, k)].Pix
		for idx := 0; idx < p.Res*p.Res; idx++ {
			if !mask.Get(idx) {
				continue
			}
			for c := 0; c < 3; c++ {
				if noise > 0 {
					base[3*idx+c] += byte(rng.Intn(2*noise+1) - noise)
				}
				pix[3*idx+c] = base[3*idx+c]
			}
		}
	}
	return vs
}

func flagsOf(payload []byte) byte { return payload[len(viewSetMagic)+9] }

// Round trip over random pixels (which the encoder stores plain) and over
// slowly varying views (which it stores as residuals), for the block sizes
// and the odd and even resolutions the serpentine order and the 8-byte
// kernels have to get right.
func TestViewSetRoundTripProperty(t *testing.T) {
	for _, l := range []int{1, 2, 3, 6} {
		for _, res := range []int{7, 12, 33} {
			p := ScaledParams(30, l, res)
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			id := ViewSetID{R: p.SetRows() - 1, C: p.SetCols() / 2}
			random, err := NewViewSet(id, l, res)
			if err != nil {
				t.Fatal(err)
			}
			fillRandomMasked(t, random, p, int64(100*l+res))
			sets := []struct {
				name      string
				vs        *ViewSet
				interView bool
			}{
				{"random", random, false},
				{"smooth", smoothViewSet(t, p, id, int64(l+res), 2), l > 1},
				{"identical", smoothViewSet(t, p, id, int64(l*res), 0), l > 1},
			}
			for _, c := range sets {
				name, vs := fmt.Sprintf("l=%d res=%d %s", l, res, c.name), c.vs
				payload, err := vs.Marshal(p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := flagsOf(payload) == flagInterView; got != c.interView {
					t.Errorf("%s: inter-view coded = %v, want %v", name, got, c.interView)
				}
				got, err := unmarshalViewSet(payload, p)
				if err != nil {
					t.Fatalf("%s: unmarshal: %v", name, err)
				}
				if !got.Equal(vs) {
					t.Errorf("%s: marshal round trip differs", name)
				}
				for _, level := range []int{codec.BestSpeed, codec.DefaultCompression} {
					frame, err := EncodeViewSet(vs, p, level)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got, err := DecodeViewSet(frame, p)
					if err != nil {
						t.Fatalf("%s level %d: decode: %v", name, level, err)
					}
					if !got.Equal(vs) {
						t.Errorf("%s level %d: decode(encode(vs)) differs", name, level)
					}
				}
			}
		}
	}
}

// The encoder picks the coding per view set from the data: random pixels
// have nothing to predict and must not pay for residuals.
func TestMarshalChoosesCodingFromData(t *testing.T) {
	p := smallParams()
	random, _ := NewViewSet(ViewSetID{}, p.ViewSetL, p.Res)
	fillRandomMasked(t, random, p, 5)
	payload, err := random.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if flagsOf(payload) != 0 {
		t.Errorf("random pixels marshalled with flags %#x, want plain", flagsOf(payload))
	}
	if want := marshalFlag0(t, random, p); !bytes.Equal(payload, want) {
		t.Error("plain payload differs from the pre-inter-view format")
	}
	smooth := smoothViewSet(t, p, ViewSetID{}, 5, 1)
	if payload, err = smooth.Marshal(p); err != nil {
		t.Fatal(err)
	}
	if flagsOf(payload) != flagInterView {
		t.Errorf("slowly varying views marshalled with flags %#x, want inter-view", flagsOf(payload))
	}
	plain, _ := codec.Compress(marshalFlag0(t, smooth, p), codec.DefaultCompression)
	coded, _ := codec.Compress(payload, codec.DefaultCompression)
	if len(coded) >= len(plain) {
		t.Errorf("inter-view frame %d bytes, plain %d: the coding was chosen and did not pay", len(coded), len(plain))
	}
}

// A payload written before this format existed decodes to the same pixels,
// buffered and streamed.
func TestFlag0PayloadStillDecodes(t *testing.T) {
	p := smallParams()
	gen, _ := NewProceduralGenerator(p, 17)
	vs, err := gen.GenerateViewSet(context.Background(), ViewSetID{R: 1, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	old := marshalFlag0(t, vs, p)
	got, err := unmarshalViewSet(old, p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(vs) {
		t.Error("flag-0 payload unmarshals to different pixels")
	}
	frame, err := codec.Compress(old, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeViewSet(frame, p); err != nil || !got.Equal(vs) {
		t.Errorf("flag-0 frame, buffered: err=%v equal=%v", err, err == nil && got.Equal(vs))
	}
	if got, err = DecodeViewSetFrom(iotest.OneByteReader(bytes.NewReader(frame)), p); err != nil || !got.Equal(vs) {
		t.Errorf("flag-0 frame, streamed: err=%v equal=%v", err, err == nil && got.Equal(vs))
	}
}

// testFrames returns one inter-view and one plain frame of the same view
// set, small enough to mutate exhaustively.
func testFrames(t testing.TB, p Params) (vs *ViewSet, frames map[string][]byte) {
	t.Helper()
	vs = smoothViewSet(t, p, ViewSetID{R: 1, C: 1}, 3, 2)
	coded, err := EncodeViewSet(vs, p, codec.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := vs.Marshal(p)
	if flagsOf(payload) != flagInterView {
		t.Fatal("test view set was not inter-view coded")
	}
	plain, err := codec.Compress(marshalFlag0(t, vs, p), codec.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	return vs, map[string][]byte{"flag1": coded, "flag0": plain}
}

func TestDecodeViewSetFromStreamingEquivalence(t *testing.T) {
	p := smallParams()
	vs, frames := testFrames(t, p)
	readers := map[string]func(io.Reader) io.Reader{
		"OneByteReader": iotest.OneByteReader,
		"HalfReader":    iotest.HalfReader,
		"DataErrReader": iotest.DataErrReader,
		// A download's buffer, its prefix published 64 bytes at a time.
		"StreamBuffer": func(r io.Reader) io.Reader {
			data, _ := io.ReadAll(r)
			sb := codec.NewStreamBuffer(data)
			go func() {
				for n := 64; n < len(data)+64; n += 64 {
					sb.Advance(int64(min(n, len(data))))
				}
			}()
			return sb.Reader()
		},
	}
	for fname, frame := range frames {
		for rname, wrap := range readers {
			got, err := DecodeViewSetFrom(wrap(bytes.NewReader(frame)), p)
			if err != nil {
				t.Errorf("%s through %s: %v", fname, rname, err)
				continue
			}
			if !got.Equal(vs) {
				t.Errorf("%s through %s: decoded pixels differ", fname, rname)
			}
		}
	}
}

// streamTails returns, for each zlib stream of a frame, the offset of the
// 5-byte empty stored block Go's writer ends it with, just before its
// Adler-32: the final block's three header bits share a byte with
// alignment padding that no inflater checks.
func streamTails(t *testing.T, frame []byte) []int {
	t.Helper()
	h, err := codec.ReadHeader(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	tails := make([]int, len(h.Segs))
	end := len(frame)
	for i := len(h.Segs) - 1; i >= 0; i-- {
		tails[i] = end - 9
		end -= h.Segs[i].CompLen
	}
	return tails
}

// Every single-byte flip and every truncation of a small frame is an error,
// through both entry points, in both frame layouts; the frame- and
// segment-level cases are named.
func TestDecodeViewSetRejectsEveryCorruption(t *testing.T) {
	p := ScaledParams(45, 2, 6)
	vs, frames := testFrames(t, p)
	decoders := map[string]func([]byte) (*ViewSet, error){
		"buffered": func(f []byte) (*ViewSet, error) { return DecodeViewSet(f, p) },
		"streamed": func(f []byte) (*ViewSet, error) {
			return DecodeViewSetFrom(iotest.OneByteReader(bytes.NewReader(f)), p)
		},
	}
	if string(frames["flag0"][:4]) != "LVZ1" || string(frames["flag1"][:4]) != "LVZ2" {
		t.Fatal("the test frames are not one of each layout")
	}
	views := p.ViewSetL * p.ViewSetL
	for fname, frame := range frames {
		payload, err := codec.Decompress(frame)
		if err != nil {
			t.Fatal(err)
		}
		stored := (len(payload) - viewSetHdrLen) / views
		cut := viewSetHdrLen + views/2*stored
		// cutAt frames the payload in segments cut at cuts and lets mutate
		// change the frame; a two-segment frame's table entries are at
		// 10 and 22, each length, compressed length, CRC-32.
		cutAt := func(cuts []int, mutate func(f []byte) []byte) []byte {
			f, err := codec.Compress(payload, codec.DefaultCompression, cuts...)
			if err != nil {
				t.Fatal(err)
			}
			return mutate(f)
		}
		add32 := func(b []byte, d int) {
			binary.LittleEndian.PutUint32(b, uint32(int(binary.LittleEndian.Uint32(b))+d))
		}
		same := func(f []byte) []byte { return f }
		// reframe wraps a payload in a frame whose header fields the
		// caller may then falsify.
		reframe := func(payload []byte, mutate func(hdr []byte)) []byte {
			f, err := codec.Compress(payload, codec.DefaultCompression)
			if err != nil {
				t.Fatal(err)
			}
			mutate(f[:13])
			return f
		}
		longer := append(append([]byte(nil), payload...), 0)
		named := map[string][]byte{
			"header: bad magic": reframe(payload, func(h []byte) { h[0] = 'X' }),
			"header: short":     frame[:7],
			"length: header says less": reframe(payload, func(h []byte) {
				binary.LittleEndian.PutUint32(h[5:], uint32(len(payload)-1))
			}),
			"length: header says more": reframe(payload, func(h []byte) {
				binary.LittleEndian.PutUint32(h[5:], uint32(len(payload)+1))
			}),
			// A self-consistent frame around one byte too many: only the
			// payload length the params imply can refuse it.
			"trailing byte: in the payload": reframe(longer, func([]byte) {}),
			// The header claims the right length and the CRC of the right
			// bytes, and the stream carries one more.
			"trailing byte: past the header's length": reframe(longer, func(h []byte) {
				binary.LittleEndian.PutUint32(h[5:], uint32(len(payload)))
				binary.LittleEndian.PutUint32(h[9:], crc32.ChecksumIEEE(payload))
			}),
			"crc: header field flipped": reframe(payload, func(h []byte) { h[9] ^= 1 }),
			"crc: pixel changed under a stale crc": func() []byte {
				changed := append([]byte(nil), payload...)
				changed[len(changed)-1] ^= 0x10
				return reframe(changed, func(h []byte) {
					binary.LittleEndian.PutUint32(h[9:], crc32.ChecksumIEEE(payload))
				})
			}(),
			"segments: lengths do not add up": cutAt([]int{cut}, func(f []byte) []byte {
				add32(f[10:], 1)
				return f
			}),
			"segments: total says less, like the lengths": cutAt([]int{cut}, func(f []byte) []byte {
				add32(f[5:], -1)
				add32(f[22:], -1)
				return f
			}),
			"segments: cut off a view boundary": cutAt([]int{cut + 3}, same),
			"segments: cut inside the header":   cutAt([]int{viewSetHdrLen / 2}, same),
			"segments: count 0":                 cutAt([]int{cut}, func(f []byte) []byte { f[9] = 0; return f }),
			"segments: count 1 in LVZ2":         cutAt([]int{cut}, func(f []byte) []byte { f[9] = 1; return f }),
			"segments: count past the table":    cutAt([]int{cut}, func(f []byte) []byte { f[9] = 3; return f }),
			// Every view boundary cut, the header alone first: one segment
			// more than there are views.
			"segments: more than L²": cutAt(func() (cuts []int) {
				for k := 0; k < views; k++ {
					cuts = append(cuts, viewSetHdrLen+k*stored)
				}
				return cuts
			}(), same),
			"segments: compressed lengths shifted by one": cutAt([]int{cut}, func(f []byte) []byte {
				add32(f[14:], 1)
				add32(f[26:], -1)
				return f
			}),
			"segments: compressed length past the bound": cutAt([]int{cut}, func(f []byte) []byte {
				binary.LittleEndian.PutUint32(f[14:], 1<<31)
				return f
			}),
			"segments: second crc flipped": cutAt([]int{cut}, func(f []byte) []byte { f[30] ^= 1; return f }),
			"segments: streams swapped under their table": cutAt([]int{cut}, func(f []byte) []byte {
				c0 := int(binary.LittleEndian.Uint32(f[14:]))
				return append(append(f[:34:34], f[34+c0:]...), f[34:34+c0]...)
			}),
			"segments: swapped with their table entries": cutAt([]int{cut}, func(f []byte) []byte {
				c0 := int(binary.LittleEndian.Uint32(f[14:]))
				hdr := append(append(f[:10:10], f[22:34]...), f[10:22]...)
				return append(append(hdr, f[34+c0:]...), f[34:34+c0]...)
			}),
			"segments: trailing byte after the last": cutAt([]int{cut}, func(f []byte) []byte { return append(f, 0) }),
		}
		for dname, decode := range decoders {
			for name, bad := range named {
				if vs, err := decode(bad); err == nil || vs != nil {
					t.Errorf("%s %s, %s: vs=%v err=%v, want an error and no view set", fname, dname, name, vs != nil, err)
				}
			}
			// One flip may pass, and only to the identical view set: a bit
			// of the alignment padding in a stream's final empty stored
			// block, which no inflater checks. LVZ1 frames avoid it only by
			// where their bits happen to fall.
			tails := streamTails(t, frame)
			padding := func(i int) bool {
				for _, at := range tails {
					if i >= at && i < at+5 {
						return true
					}
				}
				return false
			}
			for i := range frame {
				if i == 4 {
					continue // the level byte is informational
				}
				bad := append([]byte(nil), frame...)
				bad[i] ^= 0x04
				got, err := decode(bad)
				if err == nil && padding(i) && got.Equal(vs) {
					t.Logf("%s %s: flip at byte %d of %d, in a final stored block's padding, decodes to the same view set", fname, dname, i, len(frame))
					continue
				}
				if err == nil || got != nil {
					t.Errorf("%s %s: flip at byte %d of %d accepted", fname, dname, i, len(frame))
				}
			}
			for n := 0; n < len(frame); n++ {
				if vs, err := decode(frame[:n]); err == nil || vs != nil {
					t.Errorf("%s %s: truncation to %d of %d bytes accepted", fname, dname, n, len(frame))
				}
			}
		}
	}
}

func TestUnmarshalRejectsUnknownFlags(t *testing.T) {
	p := smallParams()
	vs, _ := NewViewSet(ViewSetID{}, p.ViewSetL, p.Res)
	payload, err := vs.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	payload[len(viewSetMagic)+9] = 2
	if _, err := unmarshalViewSet(payload, p); err == nil {
		t.Error("payload with an unknown format flag accepted")
	}
}

// The word-at-a-time kernels against the definition, at every length and
// alignment up to a few words and with the carries that cross a lane if
// the top bits are handled wrongly.
func TestByteLaneKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := make([]byte, 64), make([]byte, 64)
	for round := 0; round < 200; round++ {
		rng.Read(a)
		rng.Read(b)
		if round%4 == 0 {
			for i := range a {
				a[i], b[i] = []byte{0, 0x7f, 0x80, 0xff}[rng.Intn(4)], []byte{0, 1, 0x80, 0xff}[rng.Intn(4)]
			}
		}
		for off := 0; off < 9; off++ {
			for n := 0; off+n <= 40; n++ {
				sum, diff := make([]byte, n), make([]byte, n)
				addBytes(sum, a[off:], b[off:])
				subBytes(diff, a[off:], b[off:])
				for i := 0; i < n; i++ {
					if sum[i] != a[off+i]+b[off+i] || diff[i] != a[off+i]-b[off+i] {
						t.Fatalf("off %d n %d lane %d: %#x,%#x -> sum %#x diff %#x", off, n, i, a[off+i], b[off+i], sum[i], diff[i])
					}
				}
			}
		}
	}
}

// fuzzParams is small enough that a frame is a few hundred bytes.
func fuzzParams() Params { return ScaledParams(45, 2, 6) }

func FuzzUnmarshalViewSet(f *testing.F) {
	p := fuzzParams()
	vs := smoothViewSet(f, p, ViewSetID{R: 1, C: 1}, 3, 2)
	coded, err := vs.Marshal(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(coded)
	f.Add(marshalFlag0(f, vs, p))
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := unmarshalViewSet(payload, p)
		if err != nil {
			if got != nil {
				t.Fatal("error and a view set")
			}
			return
		}
		// What decodes must be a fixed point: its own encoding decodes to
		// the same pixels.
		again, err := got.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := unmarshalViewSet(again, p)
		if err != nil || !back.Equal(got) {
			t.Fatalf("accepted payload does not survive re-encoding: %v", err)
		}
	})
}

func FuzzDecodeViewSetFrom(f *testing.F) {
	p := fuzzParams()
	_, frames := testFrames(f, p)
	f.Add(frames["flag0"])
	f.Add(frames["flag1"])
	// A decode allocates the view set, an inflater on a cold pool and one
	// view of scratch, whatever the frame claims.
	const allocBound = 1 << 20
	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := DecodeViewSetFrom(bytes.NewReader(frame), p)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > allocBound {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(frame), d)
		}
		if err != nil {
			if got != nil {
				t.Fatal("error and a view set")
			}
			return
		}
		// Success means the frame's own header vouches for the pixels:
		// the payload they re-encode to has the length it gives, and each
		// segment of it the CRC-32 of its table entry.
		payload, err := codec.Decompress(frame)
		if err != nil {
			t.Fatalf("view set returned from a frame the codec rejects: %v", err)
		}
		h, err := codec.ReadHeader(bytes.NewReader(frame))
		if err != nil || h.Len != len(payload) {
			t.Fatalf("view set returned from a frame whose header says %d bytes (%v), payload %d", h.Len, err, len(payload))
		}
		off := 0
		for i, s := range h.Segs {
			if crc32.ChecksumIEEE(payload[off:off+s.Len]) != s.CRC {
				t.Fatalf("view set returned from a frame whose segment %d's CRC does not match", i)
			}
			off += s.Len
		}
		want, err := unmarshalViewSet(payload, p)
		if err != nil || !want.Equal(got) {
			t.Fatalf("streamed and buffered decode disagree: %v", err)
		}
	})
}

// TestDecodeIntoRecycledSet: a decode into a view set an earlier decode
// filled, or half filled before failing, reuses its images and leaves
// exactly what a fresh decode leaves, background included, in both payload
// formats; a set of other dimensions is left alone.
func TestDecodeIntoRecycledSet(t *testing.T) {
	p := smallParams()
	want, frames := testFrames(t, p)
	earlier, err := EncodeViewSet(smoothViewSet(t, p, ViewSetID{R: 0, C: 2}, 7, 3), p, codec.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range frames {
		old, err := DecodeViewSet(earlier, p)
		if err != nil {
			t.Fatal(err)
		}
		held := old.Views[p.ViewSetL*p.ViewSetL-1].Clone()
		pix := &old.Views[0].Pix[0]

		// Half a frame: the first views are the new payload's, the last
		// still the earlier one's.
		if _, err := DecodeViewSetInto(bytes.NewReader(frame[:len(frame)/2]), p, old); err == nil {
			t.Fatalf("%s: half a frame decoded", name)
		}
		if !old.Views[0].Equal(want.Views[0]) || !old.Views[len(old.Views)-1].Equal(held) {
			t.Fatalf("%s: half a frame did not leave the recycled set half written", name)
		}
		got, err := DecodeViewSetInto(bytes.NewReader(frame), p, old)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != old || &got.Views[0].Pix[0] != pix {
			t.Errorf("%s: the recycled set's images were not reused", name)
		}
		if !got.Equal(want) {
			t.Errorf("%s: decoded into a recycled set, pixels or ID differ from a fresh decode", name)
		}

		other, err := NewViewSet(ViewSetID{}, p.ViewSetL, p.Res+1)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeViewSetInto(bytes.NewReader(frame), p, other); err != nil || got == other || !got.Equal(want) {
			t.Errorf("%s: a set of another resolution was not replaced by a fresh one (err %v)", name, err)
		}
	}
}
