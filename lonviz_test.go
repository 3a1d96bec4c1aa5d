package lonviz

import (
	"context"
	"testing"
	"time"

	"lonviz/internal/lors"
)

// TestFacadeLocalBrowse drives the public API exactly as a downstream user
// would for local browsing: dataset -> generator -> database -> renderer.
func TestFacadeLocalBrowse(t *testing.T) {
	vol, err := NegHip(16)
	if err != nil {
		t.Fatal(err)
	}
	p := ScaledParams(45, 2, 12)
	gen, err := NewRaycastGenerator(p, vol, DefaultNegHipTF())
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(context.Background(), gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRenderer(p, MapProvider(db.Sets))
	if err != nil {
		t.Fatal(err)
	}
	cam, err := p.ViewerCamera(Spherical{Theta: 1.3, Phi: 0.5}, p.OuterRadius*1.6, 32)
	if err != nil {
		t.Fatal(err)
	}
	im, stats, err := r.RenderView(cam)
	if err != nil {
		t.Fatal(err)
	}
	if im.Res != 32 || stats.Filled == 0 {
		t.Errorf("render stats = %+v", stats)
	}
	// Codec path through the facade.
	for id, vs := range db.Sets {
		frame, err := EncodeViewSet(vs, p, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeViewSet(frame, p)
		if err != nil || got.ID != id {
			t.Fatalf("facade codec round trip: %v", err)
		}
		break
	}
}

// TestFacadeFabric drives the public LoN API: depot up, striped upload,
// parallel download.
func TestFacadeFabric(t *testing.T) {
	d, err := NewDepot(DepotConfig{Capacity: 1 << 20, MaxLease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewDepotServer(d)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	payload := make([]byte, 100*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	ex, err := Upload(context.Background(), "obj", payload, lors.UploadOptions{
		Depots:     []string{addr},
		StripeSize: 32 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Download(context.Background(), ex, lors.DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatal("facade fabric round trip mismatch")
		}
	}
}

// TestFacadeExtensions sanity-checks the interior-navigation entry point.
func TestFacadeExtensions(t *testing.T) {
	p := ScaledParams(45, 2, 8)
	if _, err := NewTrack("base", p, []Vec3{{X: 0.2}}, 0.5); err != nil {
		t.Errorf("NewTrack: %v", err)
	}
	if srv := NewDVS(""); srv == nil {
		t.Error("NewDVS returned nil")
	}
}
