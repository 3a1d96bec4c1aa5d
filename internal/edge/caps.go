package edge

import (
	"context"
	"fmt"
	"strings"

	"lonviz/internal/exnode"
	"lonviz/internal/ibp"
)

// Composite capabilities route one extent read through the edge tier: the
// edge replica's read capability encodes the origin depot and its real
// read capability, so the edge can fill on a miss without any side-channel
// mapping state. Format:
//
//	edge!<hint>!<origin-depot>!<origin-read-cap>
//
// The hint names the view set being read (popularity tracking and hot-set
// replication key on it) and must not contain '!'; the origin read cap is
// the final segment, so origin capability syntax is never constrained.
const capScheme = "edge"

// Cap is a decoded composite edge capability.
type Cap struct {
	// Hint names the view set this extent belongs to (popularity key).
	Hint string
	// OriginDepot is the authoritative depot's host:port.
	OriginDepot string
	// OriginCap is the read capability valid at OriginDepot.
	OriginCap string
}

// Encode renders the composite capability string.
func (c Cap) Encode() string {
	return capScheme + "!" + c.Hint + "!" + c.OriginDepot + "!" + c.OriginCap
}

// ParseCap decodes a composite capability; ok is false for anything that
// is not one (a plain depot read cap, for instance).
func ParseCap(s string) (Cap, bool) {
	parts := strings.SplitN(s, "!", 4)
	if len(parts) != 4 || parts[0] != capScheme || parts[2] == "" || parts[3] == "" {
		return Cap{}, false
	}
	return Cap{Hint: parts[1], OriginDepot: parts[2], OriginCap: parts[3]}, true
}

// RewriteExNode returns a copy of ex with an edge-tier replica prepended
// to every extent: depot = edgeAddr, read cap = the composite capability
// naming the extent's first origin replica, alloc offset = the origin's
// (the edge forwards offsets verbatim). Origin replicas stay in place for
// failover, and the edge replica carries no manage cap, so lease
// refresh/free passes skip it. Callers combine this with a Prefer bias
// that ranks edgeAddr first to make the edge the preferred replica.
//
// The first origin replica is chosen deterministically: all clients
// resolve the same exNode document from the DVS, so they produce the same
// composite capability and share one cache entry per extent.
func RewriteExNode(ex *exnode.ExNode, edgeAddr, hint string) *exnode.ExNode {
	if ex == nil || edgeAddr == "" {
		return ex
	}
	out := ex.Clone()
	for i := range out.Extents {
		x := &out.Extents[i]
		if len(x.Replicas) == 0 {
			continue
		}
		if x.Replicas[0].Depot == edgeAddr {
			continue // already rewritten
		}
		origin := x.Replicas[0]
		edgeRep := exnode.Replica{
			Depot:       edgeAddr,
			ReadCap:     Cap{Hint: hint, OriginDepot: origin.Depot, OriginCap: origin.ReadCap}.Encode(),
			AllocOffset: origin.AllocOffset,
		}
		x.Replicas = append([]exnode.Replica{edgeRep}, x.Replicas...)
	}
	return out
}

// Warm pulls every extent of ex through the edge at edgeAddr, filling the
// edge cache ahead of client demand (the steward's hot-set replication
// primitive). ex is the origin exNode; it is rewritten here. dialer shapes
// the connection to the edge (nil: plain TCP). Bytes are verified against
// the extent checksums so a corrupt warm surfaces instead of poisoning
// later reads.
func Warm(ctx context.Context, ex *exnode.ExNode, edgeAddr, hint string, dialer ibp.Dialer) error {
	rew := RewriteExNode(ex, edgeAddr, hint)
	cl := &ibp.Client{Addr: edgeAddr, Dialer: dialer}
	defer cl.Close()
	for _, x := range rew.SortedExtents() {
		if len(x.Replicas) == 0 || x.Replicas[0].Depot != edgeAddr {
			return fmt.Errorf("edge: warm %q: extent at %d has no edge replica", hint, x.Offset)
		}
		rep := x.Replicas[0]
		data, err := cl.Load(ctx, rep.ReadCap, rep.AllocOffset, x.Length)
		if err != nil {
			return fmt.Errorf("edge: warm %q: extent at %d: %w", hint, x.Offset, err)
		}
		if err := x.VerifyData(data); err != nil {
			return fmt.Errorf("edge: warm %q: %w", hint, err)
		}
	}
	return nil
}
