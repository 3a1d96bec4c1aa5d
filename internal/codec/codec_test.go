package codec

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	data := []byte("hello hello hello light field view set payload payload")
	for _, level := range []int{BestSpeed, DefaultCompression, BestCompression} {
		frame, err := Compress(data, level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		got, err := Decompress(frame)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("level %d: round trip mismatch", level)
		}
	}
}

func TestEmptyPayload(t *testing.T) {
	frame, err := Compress(nil, DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d bytes", len(got))
	}
}

func TestInvalidLevel(t *testing.T) {
	if _, err := Compress([]byte("x"), 42); err == nil {
		t.Error("expected error for invalid level")
	}
}

func TestCompressibleDataShrinks(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh"), 4096)
	frame, err := Compress(data, DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) >= len(data)/4 {
		t.Errorf("repetitive data compressed to %d of %d", len(frame), len(data))
	}
	r, err := Ratio(frame)
	if err != nil {
		t.Fatal(err)
	}
	if r < 4 {
		t.Errorf("Ratio = %v", r)
	}
	n, err := UncompressedLen(frame)
	if err != nil || n != len(data) {
		t.Errorf("UncompressedLen = %d, %v", n, err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	data := make([]byte, 4096)
	rng := rand.New(rand.NewSource(8))
	rng.Read(data)
	frame, err := Compress(data, DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"truncated header": func(f []byte) []byte { return f[:5] },
		"bad magic":        func(f []byte) []byte { f[0] = 'X'; return f },
		"length lie": func(f []byte) []byte {
			f[5] ^= 0xff
			return f
		},
		"crc flip": func(f []byte) []byte {
			f[9] ^= 0x01
			return f
		},
		"body corruption": func(f []byte) []byte {
			f[len(f)/2] ^= 0x40
			return f
		},
		"truncated body": func(f []byte) []byte { return f[:len(f)-10] },
	}
	for name, mutate := range cases {
		cp := append([]byte{}, frame...)
		if _, err := Decompress(mutate(cp)); err == nil {
			t.Errorf("%s: corruption not detected", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", name, err)
		}
	}
}

func TestRatioAndLenRejectGarbage(t *testing.T) {
	if _, err := Ratio([]byte("junk")); err == nil {
		t.Error("Ratio accepted junk")
	}
	if _, err := UncompressedLen([]byte{1, 2}); err == nil {
		t.Error("UncompressedLen accepted junk")
	}
}

// Property: round trip is identity for arbitrary payloads at every level.
func TestRoundTripQuick(t *testing.T) {
	f := func(data []byte, pick uint8) bool {
		levels := []int{BestSpeed, DefaultCompression, BestCompression}
		level := levels[int(pick)%len(levels)]
		frame, err := Compress(data, level)
		if err != nil {
			return false
		}
		got, err := Decompress(frame)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: decompressing random noise never succeeds silently with wrong
// content — it either errors or (astronomically unlikely) round-trips.
func TestDecompressNoiseQuick(t *testing.T) {
	f := func(noise []byte) bool {
		_, err := Decompress(noise)
		return err != nil || len(noise) >= lvz1Len
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecompressFromMatchesBuffered(t *testing.T) {
	data := bytes.Repeat([]byte("streaming payload "), 4096)
	frame, err := Compress(data, DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the frame through a reader that trickles small chunks, like a
	// download in progress.
	got, err := DecompressFrom(iotest.OneByteReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed decompress mismatch")
	}
	// Corruption in the body must still surface.
	bad := append([]byte(nil), frame...)
	bad[len(bad)/2] ^= 0xff
	if _, err := DecompressFrom(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt stream accepted")
	}
	// Truncation surfaces as ErrCorrupt, not a hang.
	if _, err := DecompressFrom(bytes.NewReader(frame[:len(frame)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// Segmented frames round-trip through both readers, every cut position is
// honoured, and cuts that do not split the payload are refused.
func TestSegmentedRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("segmented payload, "), 500)
	for _, cuts := range [][]int{{1}, {len(data) / 2}, {len(data) - 1}, {10, 20, 5000}} {
		frame, err := Compress(data, DefaultCompression, cuts...)
		if err != nil {
			t.Fatalf("cuts %v: %v", cuts, err)
		}
		h, err := ReadHeader(bytes.NewReader(frame))
		if err != nil || len(h.Segs) != len(cuts)+1 || h.Segs[0].Len != cuts[0] {
			t.Fatalf("cuts %v: header %+v, %v", cuts, h, err)
		}
		if n, err := UncompressedLen(frame); err != nil || n != len(data) {
			t.Errorf("cuts %v: UncompressedLen = %d, %v", cuts, n, err)
		}
		for name, r := range map[string]io.Reader{
			"buffered": bytes.NewReader(frame),
			"one byte": iotest.OneByteReader(bytes.NewReader(frame)),
		} {
			if got, err := DecompressFrom(r); err != nil || !bytes.Equal(got, data) {
				t.Errorf("cuts %v, %s: %v", cuts, name, err)
			}
		}
	}
	for _, cuts := range [][]int{{0}, {len(data)}, {5, 5}, {7, 3}, make([]int, maxSegments)} {
		if _, err := Compress(data, DefaultCompression, cuts...); err == nil {
			t.Errorf("cuts %v accepted", cuts)
		}
	}
}

// Bound holds for what Compress writes at every level, incompressible data
// (all stored blocks) included — the decoder refuses any segment table
// that claims more, so a frame past it would be a frame nobody can read.
func TestBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 100, 16 << 10, 64<<10 + 1, 300 << 10} {
		noise := make([]byte, n)
		rng.Read(noise)
		for level := 0; level <= BestCompression; level++ {
			for _, cuts := range [][]int{nil, {n / 2}} {
				if n < 2 && cuts != nil {
					continue
				}
				frame, err := Compress(noise, level, cuts...)
				if err != nil {
					t.Fatal(err)
				}
				if b := Bound(n, len(cuts)+1); len(frame) > b {
					t.Errorf("n=%d level %d cuts %v: frame %d bytes, bound %d", n, level, cuts, len(frame), b)
				}
				if _, err := Decompress(frame); err != nil {
					t.Errorf("n=%d level %d cuts %v: %v", n, level, cuts, err)
				}
			}
		}
	}
}
