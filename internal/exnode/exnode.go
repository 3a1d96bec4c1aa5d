// Package exnode implements the exNode: an XML-encoded data structure that
// aggregates IBP capabilities, mapping the extents of a logical file onto
// allocations spread across network depots — the network analogue of a
// Unix inode (paper section 2.2). An exNode is the only thing a client
// needs to cache to retrieve a view set from the network: it names, for
// every extent of the payload, one or more replicas, each a (depot
// address, read capability, offset) triple.
package exnode

import (
	"encoding/xml"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"
)

// Replica locates one copy of an extent on a depot.
type Replica struct {
	// Depot is the depot's host:port.
	Depot string `xml:"depot,attr"`
	// ReadCap authorizes reads of the allocation holding this copy.
	ReadCap string `xml:"read,attr"`
	// ManageCap authorizes probing/extending the allocation lease. It may
	// be empty for read-only consumers.
	ManageCap string `xml:"manage,attr,omitempty"`
	// AllocOffset is where the extent's bytes start within the allocation.
	AllocOffset int64 `xml:"allocOffset,attr"`
	// ExpiresMs is the allocation's lease expiry in Unix milliseconds,
	// recorded at upload time and updated on every renewal. Zero means
	// unknown (exNodes published before lease tracking existed). It is
	// advisory — the depot's clock is authoritative — but it lets
	// maintenance tooling see renewal deadlines without probing every
	// depot on every scan.
	ExpiresMs int64 `xml:"expires,attr,omitempty"`
}

// Expiry returns the recorded lease expiry, or the zero time when the
// replica predates lease tracking.
func (r *Replica) Expiry() time.Time {
	if r.ExpiresMs == 0 {
		return time.Time{}
	}
	return time.UnixMilli(r.ExpiresMs)
}

// SetExpiry records a lease expiry (the zero time clears it).
func (r *Replica) SetExpiry(t time.Time) {
	if t.IsZero() {
		r.ExpiresMs = 0
		return
	}
	r.ExpiresMs = t.UnixMilli()
}

// Extent maps [Offset, Offset+Length) of the logical file to replicas.
type Extent struct {
	Offset int64 `xml:"offset,attr"`
	Length int64 `xml:"length,attr"`
	// Checksum is the integrity token ("crc32:%08x") of this extent's
	// payload bytes, written at upload time. Empty on exNodes produced
	// before checksums existed; consumers accept those unverified.
	Checksum string    `xml:"checksum,attr,omitempty"`
	Replicas []Replica `xml:"replica"`
}

// ChecksumOf returns the canonical integrity token for payload bytes, the
// format stored in Extent.Checksum and ExNode.Checksum.
func ChecksumOf(data []byte) string {
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(data))
}

// ErrChecksum reports payload bytes that do not match their recorded
// extent checksum.
var ErrChecksum = errors.New("exnode: payload checksum mismatch")

// VerifyData checks payload bytes against the extent checksum. Extents
// without a checksum accept anything (legacy exNodes). A mismatch means
// the depot returned corrupted bytes: callers must treat it like a failed
// replica load and fail over rather than use the data.
func (x *Extent) VerifyData(data []byte) error {
	if x.Checksum == "" {
		return nil
	}
	if got := ChecksumOf(data); got != x.Checksum {
		return fmt.Errorf("%w: extent at %d: payload %s, recorded %s", ErrChecksum, x.Offset, got, x.Checksum)
	}
	return nil
}

// ExNode aggregates the extents of one logical object.
type ExNode struct {
	XMLName xml.Name `xml:"exnode"`
	// Name is the logical object name (e.g. a view set key).
	Name string `xml:"name,attr"`
	// Length is the total logical size in bytes.
	Length int64 `xml:"length,attr"`
	// Checksum optionally carries an integrity token for the whole object
	// (the view set codec frames already embed a CRC; this is free-form).
	Checksum string   `xml:"checksum,attr,omitempty"`
	Extents  []Extent `xml:"extent"`
}

// Validate checks structural invariants: extents sorted by offset must
// exactly tile [0, Length) with no gaps or overlaps, and every extent
// needs at least one replica with a depot and read capability.
func (e *ExNode) Validate() error {
	if e.Length < 0 {
		return fmt.Errorf("exnode %q: negative length %d", e.Name, e.Length)
	}
	if e.Length == 0 {
		if len(e.Extents) != 0 {
			return fmt.Errorf("exnode %q: zero length with %d extents", e.Name, len(e.Extents))
		}
		return nil
	}
	ext := make([]Extent, len(e.Extents))
	copy(ext, e.Extents)
	sort.Slice(ext, func(i, j int) bool { return ext[i].Offset < ext[j].Offset })
	var pos int64
	for i, x := range ext {
		if x.Length <= 0 {
			return fmt.Errorf("exnode %q: extent %d has non-positive length %d", e.Name, i, x.Length)
		}
		if x.Offset != pos {
			return fmt.Errorf("exnode %q: extent at %d leaves gap/overlap (expected offset %d)", e.Name, x.Offset, pos)
		}
		if len(x.Replicas) == 0 {
			return fmt.Errorf("exnode %q: extent at %d has no replicas", e.Name, x.Offset)
		}
		for j, r := range x.Replicas {
			if r.Depot == "" || r.ReadCap == "" {
				return fmt.Errorf("exnode %q: extent at %d replica %d missing depot or read cap", e.Name, x.Offset, j)
			}
			if r.AllocOffset < 0 {
				return fmt.Errorf("exnode %q: extent at %d replica %d negative alloc offset", e.Name, x.Offset, j)
			}
		}
		pos += x.Length
	}
	if pos != e.Length {
		return fmt.Errorf("exnode %q: extents cover %d of %d bytes", e.Name, pos, e.Length)
	}
	return nil
}

// SortedExtents returns the extents in offset order without mutating the
// exNode.
func (e *ExNode) SortedExtents() []Extent {
	out := make([]Extent, len(e.Extents))
	copy(out, e.Extents)
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

// Clone returns a deep copy sharing no slices with the receiver, so one
// copy can be mutated (lease renewals, replica repair) while the other is
// read concurrently.
func (e *ExNode) Clone() *ExNode {
	out := *e
	out.Extents = make([]Extent, len(e.Extents))
	for i, x := range e.Extents {
		out.Extents[i] = x
		out.Extents[i].Replicas = append([]Replica(nil), x.Replicas...)
	}
	return &out
}

// Depots returns the distinct depot addresses referenced, sorted.
func (e *ExNode) Depots() []string {
	set := map[string]bool{}
	for _, x := range e.Extents {
		for _, r := range x.Replicas {
			set[r.Depot] = true
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Marshal encodes the exNode as indented XML with the standard header.
func (e *ExNode) Marshal() ([]byte, error) {
	body, err := xml.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("exnode: marshal: %w", err)
	}
	return append([]byte(xml.Header), body...), nil
}

// Unmarshal decodes and validates an exNode from XML.
func Unmarshal(data []byte) (*ExNode, error) {
	var e ExNode
	if err := xml.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("exnode: unmarshal: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// Read decodes an exNode from a stream.
func Read(r io.Reader) (*ExNode, error) {
	data, err := io.ReadAll(io.LimitReader(r, 16<<20))
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}
