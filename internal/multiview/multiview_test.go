package multiview

import (
	"context"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/codec"
	"lonviz/internal/dvs"
	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/volume"
)

func trackTemplate() lightfield.Params {
	p := lightfield.ScaledParams(45, 2, 8) // tiny station DBs
	p.InnerRadius = 0.6
	p.OuterRadius = 1.5
	return p
}

func testPath() []geom.Vec3 {
	return []geom.Vec3{
		geom.V(-0.3, 0, 0),
		geom.V(0, 0, 0),
		geom.V(0.3, 0, 0),
	}
}

func TestNewTrackValidation(t *testing.T) {
	tpl := trackTemplate()
	if _, err := NewTrack("", tpl, testPath(), 0.5); err == nil {
		t.Error("empty base accepted")
	}
	if _, err := NewTrack("d", tpl, nil, 0.5); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := NewTrack("d", tpl, testPath(), 0); err == nil {
		t.Error("zero radius scale accepted")
	}
	if _, err := NewTrack("d", tpl, testPath(), 1.5); err == nil {
		t.Error("radius scale > 1 accepted")
	}
	tr, err := NewTrack("neghip", tpl, testPath(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stations) != 3 {
		t.Fatalf("stations = %d", len(tr.Stations))
	}
	if tr.Stations[1].Dataset != "neghip#s01" {
		t.Errorf("dataset name = %q", tr.Stations[1].Dataset)
	}
	if tr.Stations[2].P.Center != geom.V(0.3, 0, 0) {
		t.Errorf("station center = %v", tr.Stations[2].P.Center)
	}
	if tr.Stations[0].P.OuterRadius != tpl.OuterRadius*0.4 {
		t.Errorf("station radius = %v", tr.Stations[0].P.OuterRadius)
	}
}

func TestStationForSelection(t *testing.T) {
	tr, err := NewTrack("d", trackTemplate(), testPath(), 0.4) // outer radius 0.6
	if err != nil {
		t.Fatal(err)
	}
	// A viewer to the left, outside station 0's sphere: picks station 0.
	st, ok := tr.StationFor(geom.V(-1.2, 0, 0))
	if !ok || st.Index != 0 {
		t.Errorf("left viewer -> station %d (ok=%v)", st.Index, ok)
	}
	// A viewer above the middle: the nearest non-containing station.
	st, ok = tr.StationFor(geom.V(0, 0.9, 0))
	if !ok || st.Index != 1 {
		t.Errorf("top viewer -> station %d (ok=%v)", st.Index, ok)
	}
	// A viewer inside station 1's sphere but outside 0's and 2's still
	// resolves (to one of the neighbors).
	st, ok = tr.StationFor(geom.V(0, 0.55, 0))
	if !ok {
		t.Error("near-center viewer unsupported")
	}
	_ = st
}

func TestStationGeneratorsClip(t *testing.T) {
	tr, err := NewTrack("d", trackTemplate(), testPath(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := volume.NegHip(16)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := StationGenerators(tr, vol, volume.DefaultNegHipTF())
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 {
		t.Fatalf("generators = %d", len(gens))
	}
	// A generated station view set survives the masked encode/decode round
	// trip (the clip restored the occlusion guarantee).
	gen := gens["d#s00"]
	vs, err := gen.GenerateViewSet(context.Background(), lightfield.ViewSetID{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := lightfield.EncodeViewSet(vs, gen.Params(), codec.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lightfield.DecodeViewSet(frame, gen.Params())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(vs) {
		t.Error("clipped station view set lost pixels under the occlusion mask")
	}
}

// stationRig deploys the ordinary streaming stack for every station of a
// track — demonstrating the paper's "same framework reused" claim.
func stationRig(t *testing.T, tr *Track) SourceFactory {
	t.Helper()
	// Shared depots and DVS across stations.
	var depots []string
	for i := 0; i < 2; i++ {
		d, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 24, MaxLease: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv := ibp.NewServer(d)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		depots = append(depots, addr)
	}
	dvsSrv := dvs.NewServer("")
	dvsAddr, err := dvsSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dvsSrv.Close() })

	// One server agent per station dataset, all publishing up front.
	for _, st := range tr.Stations {
		gen, err := lightfield.NewProceduralGenerator(st.P, int64(st.Index))
		if err != nil {
			t.Fatal(err)
		}
		sa, err := agent.NewServerAgent(agent.ServerAgentConfig{
			Dataset: st.Dataset,
			Gen:     gen,
			Depots:  depots,
			DVS:     &dvs.Client{Addr: dvsAddr},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sa.Close() })
		if _, err := sa.PrecomputeAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// The factory hands each station its own client agent over the shared
	// DVS.
	return func(st Station) (agent.ViewSetSource, error) {
		ca, err := agent.NewClientAgent(agent.ClientAgentConfig{
			Dataset: st.Dataset,
			Params:  st.P,
			DVS:     &dvs.Client{Addr: dvsAddr},
		})
		if err != nil {
			return nil, err
		}
		t.Cleanup(ca.Close)
		return ca, nil
	}
}

func TestBrowserWalkthrough(t *testing.T) {
	tr, err := NewTrack("interior", trackTemplate(), testPath(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	factory := stationRig(t, tr)
	b, err := NewBrowser(tr, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Walk a path crossing station territories.
	walk := []geom.Vec3{
		geom.V(-1.4, 0.1, 0),
		geom.V(-1.0, 0.6, 0.2),
		geom.V(0, 1.0, 0.3),
		geom.V(1.0, 0.6, 0.2),
		geom.V(1.4, 0.1, 0),
	}
	stationsSeen := map[int]bool{}
	for i, pos := range walk {
		res, err := b.MoveTo(context.Background(), pos)
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		stationsSeen[res.Station.Index] = true
		if res.Record.Bytes == 0 && res.Record.Class != agent.AccessHit {
			t.Errorf("move %d: empty non-hit record %+v", i, res.Record)
		}
	}
	if len(stationsSeen) < 2 {
		t.Errorf("walk used %d stations, want >= 2 (no hand-off happened)", len(stationsSeen))
	}
	// Rendering from the last position works through the station's viewer.
	im, stats, err := b.Render(walk[len(walk)-1], 24)
	if err != nil {
		t.Fatal(err)
	}
	if im.Res != 24 || stats.Filled == 0 {
		t.Errorf("render stats = %+v", stats)
	}
}

func TestBrowserUnsupportedPosition(t *testing.T) {
	tr, err := NewTrack("d", trackTemplate(), []geom.Vec3{geom.V(0, 0, 0)}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBrowser(tr, func(st Station) (agent.ViewSetSource, error) {
		t.Fatal("factory should not be called")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Inside the single station's outer sphere: unsupported.
	if _, err := b.MoveTo(context.Background(), geom.V(0.1, 0, 0)); err == nil {
		t.Error("interior position accepted")
	}
}

func TestNewBrowserValidation(t *testing.T) {
	if _, err := NewBrowser(nil, nil); err == nil {
		t.Error("nil track accepted")
	}
	tr, _ := NewTrack("d", trackTemplate(), testPath(), 0.5)
	if _, err := NewBrowser(tr, nil); err == nil {
		t.Error("nil factory accepted")
	}
}
