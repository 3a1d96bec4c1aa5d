package agent

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
	"lonviz/internal/obs"
)

func startRemoteAgent(t *testing.T) (*rig, *RemoteSource, *ClientAgent) {
	t.Helper()
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ca := r.newClientAgent(t, nil)
	srv, err := NewClientAgentServer(ca, "neghip")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return r, &RemoteSource{Addr: addr, Dataset: "neghip"}, ca
}

func TestRemoteGetViewSet(t *testing.T) {
	r, src, _ := startRemoteAgent(t)
	id := lightfield.ViewSetID{R: 1, C: 2}
	frame, rep, err := src.GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != AccessWAN || rep.Bytes != len(frame) {
		t.Errorf("report = %+v", rep)
	}
	vs, err := lightfield.DecodeViewSet(frame, r.params)
	if err != nil {
		t.Fatal(err)
	}
	if vs.ID != id {
		t.Errorf("decoded ID = %v", vs.ID)
	}
	// Second fetch: the agent's cache answers.
	_, rep2, err := src.GetViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Class != AccessHit {
		t.Errorf("second class = %v", rep2.Class)
	}
}

func TestRemoteMoveDrivesPrefetch(t *testing.T) {
	r, src, ca := startRemoteAgent(t)
	// Enable prefetch on a second agent? Simpler: the default agent has
	// prefetch off; MOVE still updates the cursor. Verify via staging
	// order preference.
	target := lightfield.ViewSetID{R: 1, C: 3}
	src.OnUserMove(r.params.SetCenterAngles(target))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if id, ok := ca.nextToStage(false); ok && id == target {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cursor update never reached the agent")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRemoteViewerEndToEnd(t *testing.T) {
	r, src, _ := startRemoteAgent(t)
	v, err := NewViewer(r.params, src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := v.MoveTo(context.Background(), r.params.SetCenterAngles(lightfield.ViewSetID{R: 0, C: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Bytes == 0 || rec.Decompress <= 0 {
		t.Errorf("record = %+v", rec)
	}
	im, stats, err := v.Render(r.params.SetCenterAngles(lightfield.ViewSetID{R: 0, C: 1}), r.params.OuterRadius*1.6, 16)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Filled == 0 || im.Res != 16 {
		t.Error("remote viewer render failed")
	}
}

func TestRemoteProtocolErrors(t *testing.T) {
	_, src, _ := startRemoteAgent(t)
	conn, err := net.Dial("tcp", src.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	cases := []struct{ req, wantPrefix string }{
		{"GETVS wrongds r00c00\n", "ERR unknown dataset"},
		{"GETVS neghip garbage\n", "ERR"},
		{"MOVE a b\n", "ERR bad angles"},
		{"STATS\n", "OK "},
	}
	buf := make([]byte, 512)
	for _, tc := range cases {
		if _, err := conn.Write([]byte(tc.req)); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%q: %v", tc.req, err)
		}
		if !strings.HasPrefix(string(buf[:n]), tc.wantPrefix) {
			t.Errorf("%q -> %q, want prefix %q", tc.req, buf[:n], tc.wantPrefix)
		}
	}
	// Out-of-range but well-formed key yields ERR (from the agent).
	if _, err := conn.Write([]byte("GETVS neghip r90c90\n")); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(buf)
	if err != nil || !strings.HasPrefix(string(buf[:n]), "ERR") {
		t.Errorf("out-of-range key -> %q, %v", buf[:n], err)
	}
}

func TestRemoteMultipleClients(t *testing.T) {
	r, src, _ := startRemoteAgent(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := &RemoteSource{Addr: src.Addr, Dataset: "neghip"}
			ids := r.params.AllViewSets()
			id := ids[g%len(ids)]
			if _, _, err := local.GetViewSet(context.Background(), id); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNewClientAgentServerValidation(t *testing.T) {
	if _, err := NewClientAgentServer(nil, "d"); err == nil {
		t.Error("nil agent accepted")
	}
	r := newRig(t)
	ca := r.newClientAgent(t, nil)
	if _, err := NewClientAgentServer(ca, ""); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestRemoteSourceBadAddr(t *testing.T) {
	src := &RemoteSource{Addr: "127.0.0.1:1", Dataset: "d", Timeout: time.Second}
	if _, _, err := src.GetViewSet(context.Background(), lightfield.ViewSetID{}); err == nil {
		t.Error("dead agent accepted")
	}
	// OnUserMove must not panic on a dead agent.
	src.OnUserMove(geom.Spherical{Theta: 1, Phi: 1})
}

// TestRemoteHangupLeavesFlight: a remote GETVS waits under its connection,
// not under a timeout of the server's own. When the client gives up and
// closes the connection, its waiter leaves the view set's flight, and being
// the last, cancels the transfer.
func TestRemoteHangupLeavesFlight(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	gate := newGateDialer(t, 0)
	ca, tr := tracedAgent(t, r, func(c *ClientAgentConfig) { c.Dialer = gate })
	srv, err := NewClientAgentServer(ca, "neghip")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	src := &RemoteSource{Addr: addr, Dataset: "neghip"}
	id := lightfield.ViewSetID{R: 1, C: 1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	asked := make(chan error, 1)
	go func() {
		_, _, err := src.GetViewSet(ctx, id)
		asked <- err
	}()
	gate.waitBlocked(t)
	cancel()
	if err := <-asked; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled remote GETVS returned %v", err)
	}
	waitFor(t, "the abandoned flight's download to be cancelled", func() bool {
		for _, s := range spansNamed(tr, obs.SpanDownload) {
			if s.Attrs["error"] != "" {
				return true
			}
		}
		return false
	})
	gate.open()
	// The flight is gone, not waiting out FetchTimeout: the next request
	// starts its own.
	if _, rep, err := ca.GetViewSet(context.Background(), id); err != nil || rep.Class != AccessWAN {
		t.Errorf("after the hang-up: class %v, %v; want a fresh wan fetch", rep.Class, err)
	}
	if misses := ca.Stats().Misses; misses != 2 {
		t.Errorf("Misses = %d, want 2", misses)
	}
	// The connection machinery survives a watched request: the same source
	// is served again.
	if _, rep, err := src.GetViewSet(context.Background(), id); err != nil || rep.Class != AccessHit {
		t.Errorf("remote GETVS after the hang-up: class %v, %v", rep.Class, err)
	}
	if _, _, err := src.GetViewSet(context.Background(), lightfield.ViewSetID{R: 0, C: 0}); err != nil {
		t.Errorf("second remote GETVS on the kept connection: %v", err)
	}
}
