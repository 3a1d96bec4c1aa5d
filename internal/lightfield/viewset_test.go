package lightfield

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallParams() Params {
	return ScaledParams(30, 3, 12) // 6x12 lattice, 2x4 sets, 12px views
}

func TestNewViewSetValidation(t *testing.T) {
	if _, err := NewViewSet(ViewSetID{}, 0, 8); err == nil {
		t.Error("expected error for zero L")
	}
	if _, err := NewViewSet(ViewSetID{}, 3, -1); err == nil {
		t.Error("expected error for negative res")
	}
	vs, err := NewViewSet(ViewSetID{R: 1, C: 2}, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs.Views) != 9 {
		t.Errorf("views = %d", len(vs.Views))
	}
	for _, v := range vs.Views {
		if v == nil || v.Res != 8 {
			t.Fatal("views not allocated")
		}
	}
}

func TestViewAccessorsAndLatticePos(t *testing.T) {
	vs, _ := NewViewSet(ViewSetID{R: 1, C: 2}, 3, 8)
	if _, err := vs.View(3, 0); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := vs.View(0, -1); err == nil {
		t.Error("expected out-of-range error")
	}
	v, err := vs.View(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != vs.Views[2*3+1] {
		t.Error("View returned wrong image")
	}
	i, j := vs.LatticePos(2, 1)
	if i != 1*3+2 || j != 2*3+1 {
		t.Errorf("LatticePos = (%d,%d)", i, j)
	}
}

func TestViewSetIDString(t *testing.T) {
	if got := (ViewSetID{R: 3, C: 11}).String(); got != "r03c11" {
		t.Errorf("String = %q", got)
	}
}

// fillRandomMasked fills all masked-in pixels with random data and leaves
// masked-out pixels black, as a generator would.
func fillRandomMasked(t *testing.T, vs *ViewSet, p Params, seed int64) {
	t.Helper()
	mask, err := occlusionMask(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, im := range vs.Views {
		for idx := 0; idx < vs.Res*vs.Res; idx++ {
			if mask.Get(idx) {
				im.Pix[3*idx] = byte(rng.Intn(256))
				im.Pix[3*idx+1] = byte(rng.Intn(256))
				im.Pix[3*idx+2] = byte(rng.Intn(256))
			}
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := smallParams()
	vs, err := NewViewSet(ViewSetID{R: 1, C: 3}, p.ViewSetL, p.Res)
	if err != nil {
		t.Fatal(err)
	}
	fillRandomMasked(t, vs, p, 99)
	data, err := vs.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalViewSet(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(vs) {
		t.Error("round trip not equal")
	}
}

func TestMarshalSavesMaskedPixels(t *testing.T) {
	p := smallParams()
	vs, _ := NewViewSet(ViewSetID{}, p.ViewSetL, p.Res)
	data, err := vs.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := occlusionMask(p)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(m.Count()) / float64(m.Len())
	if frac >= 1 {
		t.Fatalf("mask fraction %v gives no savings", frac)
	}
	raw := int(p.BytesPerViewSet())
	if len(data) >= raw {
		t.Errorf("marshaled %d bytes >= raw %d; occlusion culling not applied", len(data), raw)
	}
	wantPixels := int(float64(raw) * frac)
	if diff := len(data) - wantPixels; diff < 0 || diff > 64 {
		t.Errorf("marshaled %d bytes, expected about %d + small header", len(data), wantPixels)
	}
}

func TestMarshalParamMismatch(t *testing.T) {
	p := smallParams()
	vs, _ := NewViewSet(ViewSetID{}, p.ViewSetL+1, p.Res)
	if _, err := vs.Marshal(p); err == nil {
		t.Error("expected error for L mismatch")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := smallParams()
	vs, _ := NewViewSet(ViewSetID{R: 0, C: 1}, p.ViewSetL, p.Res)
	data, err := vs.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshalViewSet(data[:5], p); err == nil {
		t.Error("expected error for truncated payload")
	}
	if _, err := unmarshalViewSet(data[:len(data)-7], p); err == nil {
		t.Error("expected error for truncated pixels")
	}
	if _, err := unmarshalViewSet(append(append([]byte{}, data...), 0xAA), p); err == nil {
		t.Error("expected error for trailing bytes")
	}
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if _, err := unmarshalViewSet(bad, p); err == nil {
		t.Error("expected error for bad magic")
	}
	// Mismatched params on decode.
	other := p
	other.Res = p.Res + 4
	if _, err := unmarshalViewSet(data, other); err == nil {
		t.Error("expected error for params mismatch on decode")
	}
	// Out-of-range ID in the header.
	bad2 := append([]byte{}, data...)
	bad2[len(viewSetMagic)] = 0xFF // R = huge
	if _, err := unmarshalViewSet(bad2, p); err == nil {
		t.Error("expected error for out-of-range view set ID")
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	p := ScaledParams(45, 2, 6) // tiny: 4x8 lattice, 2x4 sets
	f := func(seed int64, rIdx, cIdx uint8) bool {
		id := ViewSetID{R: int(rIdx) % p.SetRows(), C: int(cIdx) % p.SetCols()}
		vs, err := NewViewSet(id, p.ViewSetL, p.Res)
		if err != nil {
			return false
		}
		mask, err := occlusionMask(p)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for _, im := range vs.Views {
			for idx := 0; idx < vs.Res*vs.Res; idx++ {
				if mask.Get(idx) {
					im.Pix[3*idx] = byte(rng.Intn(256))
				}
			}
		}
		data, err := vs.Marshal(p)
		if err != nil {
			return false
		}
		got, err := unmarshalViewSet(data, p)
		return err == nil && got.Equal(vs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBitmask(t *testing.T) {
	m := NewBitmask(130)
	if m.Len() != 130 || m.Count() != 0 {
		t.Fatalf("fresh mask len=%d count=%d", m.Len(), m.Count())
	}
	m.Set(0, true)
	m.Set(64, true)
	m.Set(129, true)
	if !m.Get(0) || !m.Get(64) || !m.Get(129) || m.Get(1) {
		t.Error("Get/Set mismatch")
	}
	if m.Count() != 3 {
		t.Errorf("Count = %d", m.Count())
	}
	m.Set(64, false)
	if m.Get(64) || m.Count() != 2 {
		t.Error("clearing bit failed")
	}
}

func TestViewMaskGeometry(t *testing.T) {
	p := smallParams()
	m, err := occlusionMask(p)
	if err != nil {
		t.Fatal(err)
	}
	// With the default tight FOV the projected inner sphere touches the
	// frame, so the center pixel is inside and the corner outside.
	c := p.Res / 2
	if !m.Get(c*p.Res + c) {
		t.Error("center pixel masked out")
	}
	if m.Get(0) {
		t.Error("corner pixel masked in")
	}
}

func TestGeneratedViewSetRespectsMask(t *testing.T) {
	// The procedural generator must leave masked-out pixels background, or
	// Marshal would silently drop content.
	p := smallParams()
	gen, err := NewProceduralGenerator(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := gen.GenerateViewSet(context.Background(), ViewSetID{R: 1, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := vs.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalViewSet(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(vs) {
		t.Error("procedural view set not mask-clean: marshal round trip lost pixels")
	}
}

// unmarshalViewSet reconstructs a view set serialized by Marshal, from a
// payload held whole: the buffered twin of the streaming decode, kept here
// as the tests' direct way into readViewSet. Masked-out pixels are
// restored as black background.
func unmarshalViewSet(data []byte, p Params) (*ViewSet, error) {
	m, err := maskCache.get(p)
	if err != nil {
		return nil, err
	}
	if err := checkPayloadLen(len(data), p, m); err != nil {
		return nil, err
	}
	return readViewSet(data[:viewSetHdrLen], p, m, nil, func(k int) ([]byte, error) {
		return data[viewSetHdrLen+k*m.stored:][:m.stored], nil
	})
}

// occlusionMask is p's occlusion mask: bit idx is set iff the primary ray
// of pixel idx meets the inner sphere and so may see the volume. Every
// lattice camera shares it, by rotational symmetry about the center.
func occlusionMask(p Params) (*Bitmask, error) {
	m, err := maskCache.get(p)
	if err != nil {
		return nil, err
	}
	return m.bits, nil
}
