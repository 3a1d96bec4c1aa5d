package render

import (
	"bytes"
	"context"
	"image/png"
	"testing"

	"lonviz/internal/geom"
	"lonviz/internal/volume"
)

func testCaster(t *testing.T) *Raycaster {
	t.Helper()
	vol, err := volume.Shell(16, 0.3, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := volume.NewTransferFunction([]volume.TFPoint{
		{Value: 0, A: 0},
		{Value: 0.5, A: 0},
		{Value: 1, R: 1, G: 1, B: 1, A: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRaycaster(vol, tf)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func TestImageBasics(t *testing.T) {
	if _, err := NewImage(0); err == nil {
		t.Error("expected error for zero resolution")
	}
	im, err := NewImage(4)
	if err != nil {
		t.Fatal(err)
	}
	im.Set(1, 2, 10, 20, 30)
	if r, g, b := im.At(1, 2); r != 10 || g != 20 || b != 30 {
		t.Errorf("At = %d,%d,%d", r, g, b)
	}
	cl := im.Clone()
	if !im.Equal(cl) {
		t.Error("clone not equal")
	}
	cl.Set(0, 0, 1, 1, 1)
	if im.Equal(cl) {
		t.Error("mutating clone changed original equality")
	}
	if im.Equal(nil) {
		t.Error("Equal(nil) should be false")
	}
}

func TestWritePNGRoundTrip(t *testing.T) {
	im, _ := NewImage(8)
	im.Set(3, 4, 200, 100, 50)
	var buf bytes.Buffer
	if err := im.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, g, b, _ := decoded.At(3, 4).RGBA()
	if r>>8 != 200 || g>>8 != 100 || b>>8 != 50 {
		t.Errorf("decoded pixel = %d,%d,%d", r>>8, g>>8, b>>8)
	}
}

func TestNewRaycasterValidation(t *testing.T) {
	vol, _ := volume.New(4, 4, 4)
	tf := volume.DefaultNegHipTF()
	if _, err := NewRaycaster(nil, tf); err == nil {
		t.Error("expected error for nil volume")
	}
	if _, err := NewRaycaster(vol, nil); err == nil {
		t.Error("expected error for nil transfer function")
	}
}

func TestRenderShellSilhouette(t *testing.T) {
	rc := testCaster(t)
	cam, err := geom.LookAt(geom.V(0, -2, 0), geom.V(0, 0, 0), geom.V(0, 0, 1), geom.Radians(40), 33)
	if err != nil {
		t.Fatal(err)
	}
	im, err := rc.Render(context.Background(), cam)
	if err != nil {
		t.Fatal(err)
	}
	// Center pixel looks through the shell: must be lit.
	r, g, b := im.At(16, 16)
	if r == 0 && g == 0 && b == 0 {
		t.Error("center pixel black; shell not rendered")
	}
	// Corner pixel misses the volume: must be background black.
	if r, g, b := im.At(0, 0); r != 0 || g != 0 || b != 0 {
		t.Errorf("corner pixel = %d,%d,%d, want background", r, g, b)
	}
}

func TestRenderDeterministicAcrossWorkerCounts(t *testing.T) {
	rc := testCaster(t)
	cam, _ := geom.LookAt(geom.V(1.5, -1.5, 0.8), geom.V(0, 0, 0), geom.V(0, 0, 1), geom.Radians(35), 24)
	rc.Workers = 1
	a, err := rc.Render(context.Background(), cam)
	if err != nil {
		t.Fatal(err)
	}
	rc.Workers = 8
	b, err := rc.Render(context.Background(), cam)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("render differs between 1 and 8 workers")
	}
}

func TestRenderCancellation(t *testing.T) {
	rc := testCaster(t)
	cam, _ := geom.LookAt(geom.V(0, -2, 0), geom.V(0, 0, 0), geom.V(0, 0, 1), geom.Radians(40), 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rc.Render(ctx, cam); err == nil {
		t.Error("expected context error")
	}
}

func TestBackgroundColor(t *testing.T) {
	rc := testCaster(t)
	rc.Background = [3]byte{10, 20, 30}
	cam, _ := geom.LookAt(geom.V(0, -2, 0), geom.V(0, 0, 0), geom.V(0, 0, 1), geom.Radians(40), 17)
	im, err := rc.Render(context.Background(), cam)
	if err != nil {
		t.Fatal(err)
	}
	if r, g, b := im.At(0, 0); r != 10 || g != 20 || b != 30 {
		t.Errorf("background pixel = %d,%d,%d", r, g, b)
	}
}

func TestSemiTransparencyAccumulates(t *testing.T) {
	// A uniform semi-transparent volume: a longer path through the cube
	// accumulates more opacity, so the center (longest chord) is brighter
	// than near the silhouette edge.
	vol, _ := volume.New(8, 8, 8)
	for i := range vol.Data {
		vol.Data[i] = 1
	}
	tf, err := volume.NewTransferFunction([]volume.TFPoint{
		{Value: 0, A: 0},
		{Value: 1, R: 1, G: 1, B: 1, A: 0.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	rc, _ := NewRaycaster(vol, tf)
	rc.Shade = false
	// Axis-aligned chord through the center has length 1; the XY diagonal
	// through the center has length sqrt(2) and so accumulates more.
	axisR, _, _ := rc.CastRay(geom.NewRay(geom.V(0, -3, 0), geom.V(0, 1, 0)))
	diagR, _, _ := rc.CastRay(geom.NewRay(geom.V(-3, -3, 0), geom.V(1, 1, 0)))
	if diagR <= axisR {
		t.Errorf("diagonal %d not brighter than axis chord %d", diagR, axisR)
	}
}

func TestEarlyRayTermination(t *testing.T) {
	// Opaque volume: the result with a tight cutoff equals the result with
	// a looser one (the surface saturates immediately either way), but
	// must not be black.
	vol, _ := volume.New(8, 8, 8)
	for i := range vol.Data {
		vol.Data[i] = 1
	}
	tf, _ := volume.NewTransferFunction([]volume.TFPoint{
		{Value: 0, A: 0},
		{Value: 1, R: 0.5, G: 0.5, B: 0.5, A: 1},
	})
	rc, _ := NewRaycaster(vol, tf)
	rc.Shade = false
	r, _, _ := rc.CastRay(geom.NewRay(geom.V(0, -3, 0), geom.V(0, 1, 0)))
	if r == 0 {
		t.Error("opaque volume rendered black")
	}
}

func TestClipSphereRestrictsMarching(t *testing.T) {
	// A solid opaque cube with a clip sphere in its center: rays that miss
	// the clip sphere render pure background even though they cross the
	// volume.
	vol, _ := volume.New(8, 8, 8)
	for i := range vol.Data {
		vol.Data[i] = 1
	}
	tf, _ := volume.NewTransferFunction([]volume.TFPoint{
		{Value: 0, A: 0},
		{Value: 1, R: 1, G: 1, B: 1, A: 1},
	})
	rc, _ := NewRaycaster(vol, tf)
	rc.Shade = false
	clip := geom.Sphere{Center: geom.V(0, 0, 0), Radius: 0.2}
	rc.Clip = &clip
	// Through the clip sphere: lit.
	if r, _, _ := rc.CastRay(geom.NewRay(geom.V(0, -3, 0), geom.V(0, 1, 0))); r == 0 {
		t.Error("ray through clip sphere rendered background")
	}
	// Through the cube but outside the clip sphere: background.
	if r, g, b := rc.CastRay(geom.NewRay(geom.V(0.4, -3, 0.4), geom.V(0, 1, 0))); r != 0 || g != 0 || b != 0 {
		t.Errorf("ray outside clip sphere rendered %d,%d,%d", r, g, b)
	}
	// Entirely missing the volume still renders background with clip set.
	if r, _, _ := rc.CastRay(geom.NewRay(geom.V(5, -3, 5), geom.V(0, 1, 0))); r != 0 {
		t.Error("miss rendered content")
	}
}

func TestRaycasterParameterDefaults(t *testing.T) {
	vol, _ := volume.New(4, 8, 16)
	rc, _ := NewRaycaster(vol, volume.DefaultNegHipTF())
	// step uses the smallest voxel extent; NX=4 means X voxels are the
	// biggest, NZ=16 the smallest.
	if got, want := rc.step(), 0.8*(1.0/16); got != want {
		t.Errorf("step = %v, want %v", got, want)
	}
	rc.StepScale = 0.5
	if got, want := rc.step(), 0.5*(1.0/16); got != want {
		t.Errorf("custom step = %v, want %v", got, want)
	}
	if rc.cutoff() != 0.98 {
		t.Errorf("default cutoff = %v", rc.cutoff())
	}
	rc.OpacityCutoff = 0.5
	if rc.cutoff() != 0.5 {
		t.Errorf("custom cutoff = %v", rc.cutoff())
	}
	if rc.workers() <= 0 {
		t.Error("default workers not positive")
	}
	rc.Workers = 32 // the paper's cluster width
	if rc.workers() != 32 {
		t.Errorf("workers = %d", rc.workers())
	}
}

func TestSampleBilinearCorners(t *testing.T) {
	im, _ := NewImage(2)
	im.Set(0, 0, 0, 0, 0)
	im.Set(1, 0, 100, 0, 0)
	im.Set(0, 1, 0, 100, 0)
	im.Set(1, 1, 100, 100, 0)
	r, g, _ := im.SampleBilinear(0.5, 0.5)
	if r != 50 || g != 50 {
		t.Errorf("center bilinear = %v,%v", r, g)
	}
	// Out-of-range coordinates clamp to the border.
	r, _, _ = im.SampleBilinear(-3, -3)
	if r != 0 {
		t.Errorf("clamped low = %v", r)
	}
	r, g, _ = im.SampleBilinear(99, 99)
	if r != 100 || g != 100 {
		t.Errorf("clamped high = %v,%v", r, g)
	}
}
