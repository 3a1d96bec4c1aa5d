package volume

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"lonviz/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 4); err == nil {
		t.Error("expected error for zero dimension")
	}
	if _, err := New(4, -1, 4); err == nil {
		t.Error("expected error for negative dimension")
	}
	v, err := New(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Data) != 24 {
		t.Errorf("data length = %d, want 24", len(v.Data))
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	v, _ := New(3, 4, 5)
	if err := v.Set(2, 3, 4, 0.75); err != nil {
		t.Fatal(err)
	}
	if got := v.At(2, 3, 4); got != 0.75 {
		t.Errorf("At = %v", got)
	}
	if err := v.Set(3, 0, 0, 1); err == nil {
		t.Error("expected out-of-range error")
	}
	// At clamps rather than panicking.
	if got := v.At(99, -5, 2); got != v.At(2, 0, 2) {
		t.Errorf("clamped At mismatch: %v", got)
	}
}

func TestSampleAtVoxelCenters(t *testing.T) {
	v, _ := New(4, 4, 4)
	for i := range v.Data {
		v.Data[i] = float32(i) / float32(len(v.Data))
	}
	// World position of voxel center (1,2,3).
	p := geom.V(
		v.Origin.X+(1+0.5)/4*v.Size.X,
		v.Origin.Y+(2+0.5)/4*v.Size.Y,
		v.Origin.Z+(3+0.5)/4*v.Size.Z,
	)
	want := v.At(1, 2, 3)
	if got := v.Sample(p); math.Abs(float64(got-want)) > 1e-6 {
		t.Errorf("Sample at voxel center = %v, want %v", got, want)
	}
}

func TestSampleOutside(t *testing.T) {
	v, _ := New(4, 4, 4)
	for i := range v.Data {
		v.Data[i] = 1
	}
	if got := v.Sample(geom.V(2, 0, 0)); got != 0 {
		t.Errorf("outside sample = %v, want 0", got)
	}
	if got := v.Sample(geom.V(0, 0, 0)); got != 1 {
		t.Errorf("inside sample = %v, want 1", got)
	}
}

func TestSampleInterpolatesMonotonically(t *testing.T) {
	// Linear ramp along X must sample as a monotone function of x.
	v, _ := New(8, 2, 2)
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 8; i++ {
				v.Data[v.index(i, j, k)] = float32(i) / 7
			}
		}
	}
	prev := float32(-1)
	for s := 0; s <= 100; s++ {
		x := v.Origin.X + 0.05 + float64(s)/100*0.9*v.Size.X
		got := v.Sample(geom.V(x, 0, 0))
		if got < prev-1e-6 {
			t.Fatalf("sample not monotone at x=%v: %v < %v", x, got, prev)
		}
		prev = got
	}
}

func TestGradientOfLinearRamp(t *testing.T) {
	v, _ := New(16, 16, 16)
	forEachVoxel(v, func(i, j, k int, p geom.Vec3) float32 {
		return float32(p.X) + 0.5 // ramp with slope 1 along X
	})
	g := v.Gradient(geom.V(0, 0, 0))
	if math.Abs(g.X-1) > 0.05 || math.Abs(g.Y) > 0.05 || math.Abs(g.Z) > 0.05 {
		t.Errorf("gradient = %v, want ~(1,0,0)", g)
	}
}

func TestMinMaxNormalize(t *testing.T) {
	v, _ := New(2, 2, 2)
	copy(v.Data, []float32{-3, 1, 5, 2, 0, -1, 4, 3})
	lo, hi := v.MinMax()
	if lo != -3 || hi != 5 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	v.Normalize()
	lo, hi = v.MinMax()
	if lo != 0 || hi != 1 {
		t.Errorf("after Normalize MinMax = %v, %v", lo, hi)
	}
	// Constant volume becomes zeros, not NaNs.
	c, _ := New(2, 2, 2)
	for i := range c.Data {
		c.Data[i] = 7
	}
	c.Normalize()
	for _, x := range c.Data {
		if x != 0 {
			t.Fatalf("constant volume normalized to %v", x)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	v, _ := New(5, 3, 2)
	rng := rand.New(rand.NewSource(1))
	for i := range v.Data {
		v.Data[i] = rng.Float32()
	}
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NX != 5 || got.NY != 3 || got.NZ != 2 {
		t.Fatalf("dims = %dx%dx%d", got.NX, got.NY, got.NZ)
	}
	if got.Origin != v.Origin || got.Size != v.Size {
		t.Error("origin/size mismatch")
	}
	for i := range v.Data {
		if got.Data[i] != v.Data[i] {
			t.Fatalf("data[%d] = %v, want %v", i, got.Data[i], v.Data[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a volume at all......"))); err == nil {
		t.Error("expected error for bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestNegHipProperties(t *testing.T) {
	v, err := NegHip(32)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric normalization: values live in [0,1] and the strongest
	// charge touches one end exactly (negHip is net negative, so 0).
	lo, hi := v.MinMax()
	if lo < 0 || hi > 1 {
		t.Errorf("NegHip outside [0,1]: [%v, %v]", lo, hi)
	}
	if lo != 0 && hi != 1 {
		t.Errorf("NegHip symmetric normalization touches neither end: [%v, %v]", lo, hi)
	}
	// Empty corners sit on the neutral midpoint (transparent).
	if c := v.At(0, 0, 0); c < 0.45 || c > 0.55 {
		t.Errorf("corner potential %v, want ~0.5 (neutral)", c)
	}
	// Deterministic across calls.
	v2, _ := NegHip(32)
	for i := range v.Data {
		if v.Data[i] != v2.Data[i] {
			t.Fatal("NegHip not deterministic")
		}
	}
	// Must have both sub-neutral and super-neutral regions (negative and
	// positive potential).
	var below, above int
	for _, x := range v.Data {
		if x < 0.4 {
			below++
		}
		if x > 0.6 {
			above++
		}
	}
	if below == 0 || above == 0 {
		t.Errorf("NegHip lacks charge structure: below=%d above=%d", below, above)
	}
}

func TestBlobsAndShell(t *testing.T) {
	b, err := Blobs(16, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := b.MinMax(); lo != 0 || hi != 1 {
		t.Errorf("Blobs not normalized: [%v,%v]", lo, hi)
	}
	b2, _ := Blobs(16, 5, 42)
	for i := range b.Data {
		if b.Data[i] != b2.Data[i] {
			t.Fatal("Blobs not deterministic for fixed seed")
		}
	}
	s, err := Shell(16, 0.35, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Shell: center and corner are near zero, points at radius are high.
	if s.Sample(geom.V(0, 0, 0)) > 0.2 {
		t.Error("shell center not hollow")
	}
	if s.Sample(geom.V(0.35, 0, 0)) < 0.5 {
		t.Error("shell surface not dense")
	}
}

func TestBoundsContainVolume(t *testing.T) {
	v, _ := New(4, 4, 4)
	b := v.Bounds()
	if b.Min != geom.V(-0.5, -0.5, -0.5) || b.Max != geom.V(0.5, 0.5, 0.5) {
		t.Errorf("bounds = %+v", b)
	}
}
