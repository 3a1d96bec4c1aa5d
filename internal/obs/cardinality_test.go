package obs

import (
	"fmt"
	"reflect"
	"testing"
)

func TestLabelCardinalityGuardFoldsOverflow(t *testing.T) {
	r := NewRegistry()
	r.MaxLabelInstances = 3
	for i := 0; i < 10; i++ {
		r.Counter(Label("ibp.depot.errors", "depot", fmt.Sprintf("h%d:9000", i))).Inc()
	}
	snap := r.Snapshot()

	// The first three distinct label sets register normally.
	for i := 0; i < 3; i++ {
		name := Label("ibp.depot.errors", "depot", fmt.Sprintf("h%d:9000", i))
		if v, ok := snap[name].(int64); !ok || v != 1 {
			t.Fatalf("instance %s = %v, want 1", name, snap[name])
		}
	}
	// Everything past the cap folds into the "other" instance.
	other := Label("ibp.depot.errors", "depot", "other")
	if v, ok := snap[other].(int64); !ok || v != 7 {
		t.Fatalf("folded instance %s = %v, want 7", other, snap[other])
	}
	if _, ok := snap[Label("ibp.depot.errors", "depot", "h5:9000")]; ok {
		t.Fatal("overflowing label set registered instead of folding")
	}
	// Every folded recording tallies, not just the first.
	if v, ok := snap[MObsLabelOverflow].(int64); !ok || v != 7 {
		t.Fatalf("%s = %v, want 7", MObsLabelOverflow, snap[MObsLabelOverflow])
	}
}

func TestLabelCardinalityGuardLeavesPlainNamesAlone(t *testing.T) {
	r := NewRegistry()
	r.MaxLabelInstances = 1
	for i := 0; i < 10; i++ {
		r.Counter(fmt.Sprintf("plain.metric.%d", i)).Inc()
	}
	if got := len(r.Names()); got != 10 {
		t.Fatalf("plain names registered = %d, want 10 (cap must only bound labeled families)", got)
	}
}

func TestLabelCardinalityGuardDefaultCap(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < DefaultMaxLabelInstances+5; i++ {
		r.Counter(Label("fam.ms", "k", fmt.Sprintf("v%03d", i))).Inc()
	}
	snap := r.Snapshot()
	if v, ok := snap[MObsLabelOverflow].(int64); !ok || v != 5 {
		t.Fatalf("%s = %v, want 5", MObsLabelOverflow, snap[MObsLabelOverflow])
	}
}

func TestParseLabelsInvertsLabel(t *testing.T) {
	cases := []struct {
		name, family string
		labels       map[string]string
	}{
		{"plain.ms", "plain.ms", nil},
		{Label("fam.ms", "depot", "d1:6714"), "fam.ms", map[string]string{"depot": "d1:6714"}},
		{Label("fam.ms", "node", "h1:1", "family", "ibp.op.ms"), "fam.ms", map[string]string{"node": "h1:1", "family": "ibp.op.ms"}},
		{"fam.ms{broken", "fam.ms{broken", nil},
		{"fam.ms{novalue,k=v}", "fam.ms", map[string]string{"k": "v"}},
	}
	for _, c := range cases {
		family, labels := ParseLabels(c.name)
		if family != c.family || !reflect.DeepEqual(labels, c.labels) {
			t.Errorf("ParseLabels(%q) = %q, %v; want %q, %v", c.name, family, labels, c.family, c.labels)
		}
	}
}

func TestHistogramExemplarTracksTopBucket(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	h.ObserveTrace(5, 0xaaa) // bucket (1,10]
	if got := h.Exemplar(); got != 0xaaa {
		t.Fatalf("exemplar = %x, want aaa", got)
	}
	h.ObserveTrace(500, 0xbbb) // overflow bucket: new top
	h.ObserveTrace(2, 0xccc)   // lower bucket: must not displace
	if got := h.Exemplar(); got != 0xbbb {
		t.Fatalf("exemplar = %x, want bbb (top bucket wins)", got)
	}
	h.ObserveTrace(600, 0xddd) // same top bucket: most recent wins
	if got := h.Exemplar(); got != 0xddd {
		t.Fatalf("exemplar = %x, want ddd (recency within top bucket)", got)
	}
	// Traceless observations never clobber a retained exemplar.
	h.Observe(900)
	if got := h.Exemplar(); got != 0xddd {
		t.Fatalf("exemplar = %x, want ddd after traceless observe", got)
	}

	snap := h.Snapshot()
	if snap.ExemplarTrace != fmt.Sprintf("%016x", uint64(0xddd)) {
		t.Fatalf("snapshot exemplar_trace = %q", snap.ExemplarTrace)
	}
}

func TestHistogramWithoutTraceHasNoExemplar(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Observe(5)
	if h.Exemplar() != 0 {
		t.Fatal("exemplar set without any traced observation")
	}
	if s := h.Snapshot(); s.ExemplarTrace != "" {
		t.Fatalf("snapshot exemplar_trace = %q, want empty", s.ExemplarTrace)
	}
}
