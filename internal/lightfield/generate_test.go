package lightfield

import (
	"context"
	"testing"

	"lonviz/internal/volume"
)

func TestProceduralGeneratorDeterministic(t *testing.T) {
	p := smallParams()
	gen, err := NewProceduralGenerator(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := gen.GenerateViewSet(context.Background(), ViewSetID{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.GenerateViewSet(context.Background(), ViewSetID{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("procedural generation not deterministic")
	}
	// Different seed gives different content.
	gen2, _ := NewProceduralGenerator(p, 43)
	c, err := gen2.GenerateViewSet(context.Background(), ViewSetID{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("different seeds produced identical view sets")
	}
}

func TestProceduralGeneratorRejectsBadID(t *testing.T) {
	gen, _ := NewProceduralGenerator(smallParams(), 1)
	if _, err := gen.GenerateViewSet(context.Background(), ViewSetID{R: 99, C: 0}); err == nil {
		t.Error("expected error for out-of-range view set")
	}
}

func TestProceduralViewCoherence(t *testing.T) {
	// Adjacent sample views within a view set must be similar (view
	// coherence is what view sets exploit); distant views must differ.
	p := smallParams()
	gen, _ := NewProceduralGenerator(p, 5)
	vs, err := gen.GenerateViewSet(context.Background(), ViewSetID{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	v0, _ := vs.View(0, 0)
	v1, _ := vs.View(0, 1)
	v2, _ := vs.View(vs.L-1, vs.L-1)
	dAdj := meanAbsDiff(v0.Pix, v1.Pix)
	dFar := meanAbsDiff(v0.Pix, v2.Pix)
	if dAdj >= dFar {
		t.Errorf("adjacent views (diff %v) should be closer than far views (diff %v)", dAdj, dFar)
	}
}

func meanAbsDiff(a, b []byte) float64 {
	var sum float64
	for i := range a {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(a))
}

func TestRaycastGeneratorEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("raycast generation is slow")
	}
	p := ScaledParams(45, 2, 10) // tiny DB
	vol, err := volume.NegHip(16)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewRaycastGenerator(p, vol, volume.DefaultNegHipTF())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := gen.GenerateViewSet(context.Background(), ViewSetID{R: 1, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rendered content must survive the masked marshal round trip: all
	// non-background pixels live inside the occlusion mask.
	data, err := vs.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalViewSet(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(vs) {
		t.Error("raycast view set lost pixels under occlusion mask")
	}
	// At least one pixel is non-black (the volume is visible).
	nonBlack := 0
	for _, v := range vs.Views {
		for _, px := range v.Pix {
			if px != 0 {
				nonBlack++
			}
		}
	}
	if nonBlack == 0 {
		t.Error("raycast generator produced all-black view set")
	}
}

func TestRaycastGeneratorRejectsOversizeVolume(t *testing.T) {
	p := ScaledParams(45, 2, 8)
	p.InnerRadius = 0.3 // smaller than the unit cube's bounding sphere
	vol, _ := volume.New(8, 8, 8)
	if _, err := NewRaycastGenerator(p, vol, volume.DefaultNegHipTF()); err == nil {
		t.Error("expected error when volume exceeds inner sphere")
	}
}

func TestBuildDatabaseComplete(t *testing.T) {
	p := ScaledParams(45, 2, 6) // 2x4 sets = 8
	gen, _ := NewProceduralGenerator(p, 3)
	res, err := BuildDatabase(context.Background(), gen, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != p.NumViewSets() {
		t.Fatalf("built %d sets, want %d", len(res.Sets), p.NumViewSets())
	}
	for _, id := range p.AllViewSets() {
		vs, ok := res.Sets[id]
		if !ok || vs.ID != id {
			t.Fatalf("missing or mislabeled view set %v", id)
		}
	}
	if res.UncompressedBytes != p.BytesPerViewSet()*int64(p.NumViewSets()) {
		t.Errorf("UncompressedBytes = %d", res.UncompressedBytes)
	}
}

func TestBuildDatabaseParallelMatchesSerial(t *testing.T) {
	p := ScaledParams(45, 2, 6)
	gen, _ := NewProceduralGenerator(p, 11)
	serial, err := BuildDatabase(context.Background(), gen, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildDatabase(context.Background(), gen, 8)
	if err != nil {
		t.Fatal(err)
	}
	for id, vs := range serial.Sets {
		if !parallel.Sets[id].Equal(vs) {
			t.Fatalf("view set %v differs between worker counts", id)
		}
	}
}

func TestBuildDatabaseCancellation(t *testing.T) {
	p := ScaledParams(15, 3, 16) // larger so cancellation lands mid-build
	gen, _ := NewProceduralGenerator(p, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildDatabase(ctx, gen, 2); err == nil {
		t.Error("expected error from canceled build")
	}
}
