package lightfield

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// DirStore reads and writes a generated database as one compressed frame
// file per view set ("rRRcCC.lvz") plus a MANIFEST — the on-disk layout
// produced by cmd/lfgen. A server agent can serve a pre-generated database
// through DirGenerator without re-rendering anything, separating the
// paper's offline cluster generation step from online publication.
type DirStore struct {
	Dir string
	P   Params
}

// NewDirStore validates the geometry and ensures the directory exists.
func NewDirStore(dir string, p Params) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("lightfield: empty store directory")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lightfield: creating store: %w", err)
	}
	return &DirStore{Dir: dir, P: p}, nil
}

func (s *DirStore) path(id ViewSetID) string {
	return filepath.Join(s.Dir, id.String()+".lvz")
}

// WriteFrame stores one view set's compressed frame.
func (s *DirStore) WriteFrame(id ViewSetID, frame []byte) error {
	if !s.P.ValidID(id) {
		return fmt.Errorf("lightfield: view set %v outside database", id)
	}
	return os.WriteFile(s.path(id), frame, 0o644)
}

// ReadFrame loads one view set's compressed frame.
func (s *DirStore) ReadFrame(id ViewSetID) ([]byte, error) {
	if !s.P.ValidID(id) {
		return nil, fmt.Errorf("lightfield: view set %v outside database", id)
	}
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("lightfield: reading frame %v: %w", id, err)
	}
	return data, nil
}

// Has reports whether the frame file for id exists.
func (s *DirStore) Has(id ViewSetID) bool {
	_, err := os.Stat(s.path(id))
	return err == nil
}

// List returns the IDs of all stored frames.
func (s *DirStore) List() ([]ViewSetID, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, err
	}
	var out []ViewSetID
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".lvz") {
			continue
		}
		var r, c int
		if _, err := fmt.Sscanf(strings.TrimSuffix(name, ".lvz"), "r%dc%d", &r, &c); err != nil {
			continue
		}
		id := ViewSetID{R: r, C: c}
		if s.P.ValidID(id) {
			out = append(out, id)
		}
	}
	return out, nil
}

// DirGenerator adapts a DirStore to the Generator interface: GenerateViewSet
// decodes the stored frame instead of rendering. Misses surface as errors,
// so a server agent backed by it serves exactly the pre-generated database.
type DirGenerator struct {
	Store *DirStore
}

// Params implements Generator.
func (g *DirGenerator) Params() Params { return g.Store.P }

// GenerateViewSet implements Generator by loading from disk.
func (g *DirGenerator) GenerateViewSet(ctx context.Context, id ViewSetID) (*ViewSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	frame, err := g.Store.ReadFrame(id)
	if err != nil {
		return nil, err
	}
	return DecodeViewSet(frame, g.Store.P)
}

// FallbackGenerator serves from a store when possible and falls back to a
// live generator for view sets not yet on disk, writing them through — the
// paper's mixed mode where most view sets are precomputed offline but
// close-up requests render at run time.
type FallbackGenerator struct {
	Store *DirStore
	Live  Generator
	// Level is the codec level for write-through (codec default if 0 is
	// passed to EncodeViewSet via -1 semantics; use codec.DefaultCompression).
	Level int
}

// Params implements Generator.
func (g *FallbackGenerator) Params() Params { return g.Store.P }

// GenerateViewSet implements Generator with store-first semantics.
func (g *FallbackGenerator) GenerateViewSet(ctx context.Context, id ViewSetID) (*ViewSet, error) {
	if g.Store.Has(id) {
		return (&DirGenerator{Store: g.Store}).GenerateViewSet(ctx, id)
	}
	vs, err := g.Live.GenerateViewSet(ctx, id)
	if err != nil {
		return nil, err
	}
	frame, err := EncodeViewSet(vs, g.Store.P, g.Level)
	if err != nil {
		return nil, err
	}
	if err := g.Store.WriteFrame(id, frame); err != nil {
		return nil, err
	}
	return vs, nil
}
