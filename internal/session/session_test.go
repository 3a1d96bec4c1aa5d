package session

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/geom"
	"lonviz/internal/lightfield"
)

func scriptParams() lightfield.Params { return lightfield.ScaledParams(15, 3, 8) } // 4x8 sets

func TestStandardScriptProperties(t *testing.T) {
	p := scriptParams()
	s, err := StandardScript(p, PaperAccessCount, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Moves) != 58 {
		t.Fatalf("moves = %d", len(s.Moves))
	}
	trans := transitions(s, p)
	if len(trans) != 58 {
		t.Fatalf("transitions = %d", len(trans))
	}
	// Consecutive accesses always target different view sets (each move
	// is a real view set request).
	prev := lightfield.ViewSetID{R: -1, C: -1}
	for i, id := range trans {
		if !p.ValidID(id) {
			t.Fatalf("move %d targets invalid set %v", i, id)
		}
		if id == prev {
			t.Fatalf("move %d repeats set %v", i, id)
		}
		prev = id
	}
	// Steps are between neighboring sets (cursor continuity).
	for i := 1; i < len(trans); i++ {
		isNeighbor := false
		for _, n := range p.Neighbors(trans[i-1]) {
			if n == trans[i] {
				isNeighbor = true
			}
		}
		if !isNeighbor {
			t.Fatalf("move %d jumps from %v to %v (not neighbors)", i, trans[i-1], trans[i])
		}
	}
}

func TestStandardScriptDeterministic(t *testing.T) {
	p := scriptParams()
	a, _ := StandardScript(p, 30, 42)
	b, _ := StandardScript(p, 30, 42)
	for i := range a.Moves {
		if a.Moves[i] != b.Moves[i] {
			t.Fatal("script not deterministic")
		}
	}
	c, _ := StandardScript(p, 30, 43)
	same := true
	for i := range a.Moves {
		if a.Moves[i] != c.Moves[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical scripts")
	}
}

func TestStandardScriptValidation(t *testing.T) {
	if _, err := StandardScript(scriptParams(), 0, 1); err == nil {
		t.Error("zero accesses accepted")
	}
	bad := scriptParams()
	bad.Res = 0
	if _, err := StandardScript(bad, 10, 1); err == nil {
		t.Error("bad params accepted")
	}
}

func fakeRecords() []agent.AccessRecord {
	mk := func(class agent.AccessClass, total, comm, dec time.Duration) agent.AccessRecord {
		return agent.AccessRecord{Class: class, Total: total, Comm: comm, Decompress: dec}
	}
	return []agent.AccessRecord{
		mk(agent.AccessWAN, time.Second, 900*time.Millisecond, 50*time.Millisecond),
		mk(agent.AccessWAN, time.Second, 900*time.Millisecond, 50*time.Millisecond),
		mk(agent.AccessLANDepot, 100*time.Millisecond, 80*time.Millisecond, 10*time.Millisecond),
		mk(agent.AccessWAN, time.Second, 900*time.Millisecond, 50*time.Millisecond),
		mk(agent.AccessHit, time.Millisecond, 100*time.Microsecond, 500*time.Microsecond),
		mk(agent.AccessLANDepot, 90*time.Millisecond, 70*time.Millisecond, 10*time.Millisecond),
		mk(agent.AccessHit, time.Millisecond, 100*time.Microsecond, 500*time.Microsecond),
	}
}

func TestSeriesExtraction(t *testing.T) {
	recs := fakeRecords()
	tot := TotalSeconds(recs)
	if len(tot) != 7 || tot[0] != 1.0 {
		t.Errorf("TotalSeconds = %v", tot)
	}
	comm := CommSeconds(recs)
	if comm[2] != 0.08 {
		t.Errorf("CommSeconds[2] = %v", comm[2])
	}
	dec := DecompressSeconds(recs)
	if dec[0] != 0.05 {
		t.Errorf("DecompressSeconds[0] = %v", dec[0])
	}
}

func TestClassCountsAndRates(t *testing.T) {
	recs := fakeRecords()
	counts := ClassCounts(recs)
	if counts[agent.AccessWAN] != 3 || counts[agent.AccessLANDepot] != 2 || counts[agent.AccessHit] != 2 {
		t.Errorf("counts = %v", counts)
	}
	// Initial phase: last WAN access is index 3 -> length 4.
	if got := InitialPhaseLength(recs); got != 4 {
		t.Errorf("InitialPhaseLength = %d", got)
	}
	if got := WANRate(recs, 4); got != 0.75 {
		t.Errorf("WANRate(4) = %v", got)
	}
	if got := HitRate(recs, 7); got < 0.28 || got > 0.29 {
		t.Errorf("HitRate(7) = %v", got)
	}
	if got := WANRate(nil, 5); got != 0 {
		t.Errorf("WANRate(empty) = %v", got)
	}
	if got := InitialPhaseLength(recs[4:]); got != 0 {
		t.Errorf("no-WAN initial phase = %d", got)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, []string{"case1", "case2"},
		[]float64{0.1, 0.2}, []float64{1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "access,case1,case2" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,0.1") || !strings.Contains(lines[1], ",1.0") {
		t.Errorf("row = %q", lines[1])
	}
	if err := WriteSeriesCSV(&buf, nil); err == nil {
		t.Error("no series accepted")
	}
	if err := WriteSeriesCSV(&buf, []string{"a", "b"}, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("misaligned series accepted")
	}
}

func TestStandardScriptAtPaperScale(t *testing.T) {
	// The paper lattice: 12x24 view sets of 6x6 views.
	p := lightfield.PaperParams(64)
	s, err := StandardScript(p, PaperAccessCount, 3)
	if err != nil {
		t.Fatal(err)
	}
	trans := transitions(s, p)
	distinct := map[lightfield.ViewSetID]bool{}
	for _, id := range trans {
		distinct[id] = true
	}
	// A 58-access walk over 288 sets should mostly visit distinct sets —
	// the regime behind the paper's ~30% hit rates.
	if len(distinct) < PaperAccessCount/2 {
		t.Errorf("only %d distinct sets over %d accesses", len(distinct), PaperAccessCount)
	}
}

func TestRunPropagatesMoveError(t *testing.T) {
	// A viewer whose source always fails must abort the session with a
	// positioned error.
	p := scriptParams()
	v, err := agent.NewViewer(p, failingSource{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := StandardScript(p, 5, 1)
	_, err = Run(context.Background(), v, s, RunOptions{})
	if err == nil {
		t.Fatal("failing source did not abort the run")
	}
	if !strings.Contains(err.Error(), "move 0") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestRunHonorsContext(t *testing.T) {
	p := scriptParams()
	v, err := agent.NewViewer(p, failingSource{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := StandardScript(p, 5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, v, s, RunOptions{}); err == nil {
		t.Error("canceled run succeeded")
	}
}

type failingSource struct{}

func (failingSource) GetViewSet(ctx context.Context, id lightfield.ViewSetID) ([]byte, agent.AccessReport, error) {
	return nil, agent.AccessReport{}, errors.New("source down")
}

func (failingSource) OnUserMove(sp geom.Spherical) {}

// transitions is the view set request sequence s generates over p: the set
// of the nearest camera to each move.
func transitions(s Script, p lightfield.Params) []lightfield.ViewSetID {
	out := make([]lightfield.ViewSetID, 0, len(s.Moves))
	for _, sp := range s.Moves {
		i, j := p.NearestCamera(sp)
		out = append(out, p.ViewSetOf(i, j))
	}
	return out
}
