package lightfield

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"lonviz/internal/codec"
)

func TestDirStoreRoundTrip(t *testing.T) {
	p := smallParams()
	store, err := NewDirStore(t.TempDir(), p)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := NewProceduralGenerator(p, 3)
	build, err := BuildDatabase(context.Background(), gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id, vs := range build.Sets {
		frame, err := EncodeViewSet(vs, p, codec.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WriteFrame(id, frame); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != p.NumViewSets() {
		t.Fatalf("listed %d of %d", len(ids), p.NumViewSets())
	}
	// DirGenerator returns content identical to the original build.
	dg := &DirGenerator{Store: store}
	for _, id := range p.AllViewSets() {
		vs, err := dg.GenerateViewSet(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if !vs.Equal(build.Sets[id]) {
			t.Fatalf("stored view set %v differs from build", id)
		}
	}
}

func TestDirStoreValidation(t *testing.T) {
	p := smallParams()
	if _, err := NewDirStore("", p); err == nil {
		t.Error("empty dir accepted")
	}
	bad := p
	bad.Res = 0
	if _, err := NewDirStore(t.TempDir(), bad); err == nil {
		t.Error("bad params accepted")
	}
	store, _ := NewDirStore(t.TempDir(), p)
	if err := store.WriteFrame(ViewSetID{R: 99, C: 0}, []byte("x")); err == nil {
		t.Error("out-of-range write accepted")
	}
	if _, err := store.ReadFrame(ViewSetID{R: 0, C: 0}); err == nil {
		t.Error("missing frame read succeeded")
	}
	if store.Has(ViewSetID{R: 0, C: 0}) {
		t.Error("Has true for missing frame")
	}
}

func TestFallbackGeneratorWritesThrough(t *testing.T) {
	p := smallParams()
	store, _ := NewDirStore(t.TempDir(), p)
	live, _ := NewProceduralGenerator(p, 9)
	fg := &FallbackGenerator{Store: store, Live: live, Level: codec.DefaultCompression}
	id := ViewSetID{R: 1, C: 2}
	if store.Has(id) {
		t.Fatal("store should start empty")
	}
	vs1, err := fg.GenerateViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !store.Has(id) {
		t.Error("write-through did not happen")
	}
	// Second call serves from disk and matches.
	vs2, err := fg.GenerateViewSet(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !vs1.Equal(vs2) {
		t.Error("disk-served view set differs")
	}
}

func TestDirStoreListIgnoresJunk(t *testing.T) {
	p := smallParams()
	dir := t.TempDir()
	store, _ := NewDirStore(dir, p)
	gen, _ := NewProceduralGenerator(p, 1)
	vs, _ := gen.GenerateViewSet(context.Background(), ViewSetID{R: 0, C: 0})
	frame, _ := EncodeViewSet(vs, p, codec.BestSpeed)
	if err := store.WriteFrame(ViewSetID{R: 0, C: 0}, frame); err != nil {
		t.Fatal(err)
	}
	// Junk files that must not confuse List.
	for _, name := range []string{"MANIFEST", "notes.txt", "r99c99.lvz", "rXcY.lvz"} {
		if err := writeJunk(dir, name); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != (ViewSetID{R: 0, C: 0}) {
		t.Errorf("List = %v", ids)
	}
}

func writeJunk(dir, name string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644)
}
