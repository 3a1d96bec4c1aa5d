package exnode

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleExNode() *ExNode {
	return &ExNode{
		Name:   "r03c11",
		Length: 300,
		Extents: []Extent{
			{Offset: 0, Length: 100, Replicas: []Replica{
				{Depot: "ca1:6714", ReadCap: "aaa", ManageCap: "mmm"},
				{Depot: "ca2:6714", ReadCap: "bbb", AllocOffset: 64},
			}},
			{Offset: 100, Length: 100, Replicas: []Replica{
				{Depot: "ca2:6714", ReadCap: "ccc"},
			}},
			{Offset: 200, Length: 100, Replicas: []Replica{
				{Depot: "ca3:6714", ReadCap: "ddd"},
			}},
		},
	}
}

func TestValidateGood(t *testing.T) {
	if err := sampleExNode().Validate(); err != nil {
		t.Fatal(err)
	}
	empty := &ExNode{Name: "empty", Length: 0}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty exnode: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ExNode)
	}{
		{"negative length", func(e *ExNode) { e.Length = -1 }},
		{"gap", func(e *ExNode) { e.Extents[1].Offset = 150 }},
		{"overlap", func(e *ExNode) { e.Extents[1].Offset = 50 }},
		{"short coverage", func(e *ExNode) { e.Length = 400 }},
		{"zero-length extent", func(e *ExNode) { e.Extents[0].Length = 0; e.Extents[0].Offset = 0 }},
		{"no replicas", func(e *ExNode) { e.Extents[2].Replicas = nil }},
		{"missing depot", func(e *ExNode) { e.Extents[0].Replicas[0].Depot = "" }},
		{"missing read cap", func(e *ExNode) { e.Extents[0].Replicas[1].ReadCap = "" }},
		{"negative alloc offset", func(e *ExNode) { e.Extents[0].Replicas[0].AllocOffset = -3 }},
		{"zero length with extents", func(e *ExNode) { e.Length = 0 }},
	}
	for _, tc := range cases {
		e := sampleExNode()
		tc.mutate(e)
		if err := e.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestValidateUnsortedExtentsOK(t *testing.T) {
	e := sampleExNode()
	e.Extents[0], e.Extents[2] = e.Extents[2], e.Extents[0]
	if err := e.Validate(); err != nil {
		t.Errorf("unsorted but tiling extents rejected: %v", err)
	}
	sorted := e.SortedExtents()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Offset < sorted[i-1].Offset {
			t.Fatal("SortedExtents not sorted")
		}
	}
	// Original slice order unchanged.
	if e.Extents[0].Offset != 200 {
		t.Error("SortedExtents mutated the exNode")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	e := sampleExNode()
	e.Checksum = "crc32:deadbeef"
	data, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("<exnode")) || !bytes.Contains(data, []byte("replica")) {
		t.Errorf("XML missing expected elements:\n%s", data)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != e.Name || got.Length != e.Length || got.Checksum != e.Checksum {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Extents) != 3 {
		t.Fatalf("extents = %d", len(got.Extents))
	}
	if got.Extents[0].Replicas[1].AllocOffset != 64 {
		t.Error("alloc offset lost in round trip")
	}
	if got.Extents[0].Replicas[0].ManageCap != "mmm" {
		t.Error("manage cap lost in round trip")
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	if _, err := Unmarshal([]byte("<not-xml")); err == nil {
		t.Error("garbage accepted")
	}
	// Well-formed XML that fails validation.
	bad := `<exnode name="x" length="10"></exnode>`
	if _, err := Unmarshal([]byte(bad)); err == nil {
		t.Error("uncovered exnode accepted")
	}
}

func TestReadStream(t *testing.T) {
	data, _ := sampleExNode().Marshal()
	got, err := Read(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "r03c11" {
		t.Errorf("Name = %q", got.Name)
	}
}

func TestDepotsAndReplicationFactor(t *testing.T) {
	e := sampleExNode()
	depots := e.Depots()
	want := []string{"ca1:6714", "ca2:6714", "ca3:6714"}
	if len(depots) != len(want) {
		t.Fatalf("depots = %v", depots)
	}
	for i := range want {
		if depots[i] != want[i] {
			t.Errorf("depots[%d] = %q", i, depots[i])
		}
	}
	if rf := e.ReplicationFactor(); rf != 1 {
		t.Errorf("replication factor = %d, want 1 (min across extents)", rf)
	}
	if rf := (&ExNode{}).ReplicationFactor(); rf != 0 {
		t.Errorf("empty replication factor = %d", rf)
	}
}

// Property: any exNode built as a clean striping (contiguous equal stripes,
// k replicas) validates and round-trips through XML.
func TestStripedExNodeQuick(t *testing.T) {
	f := func(stripesRaw, repsRaw, stripeLenRaw uint8) bool {
		stripes := int(stripesRaw%8) + 1
		reps := int(repsRaw%3) + 1
		stripeLen := int64(stripeLenRaw%100) + 1
		e := &ExNode{Name: "q", Length: int64(stripes) * stripeLen}
		for s := 0; s < stripes; s++ {
			x := Extent{Offset: int64(s) * stripeLen, Length: stripeLen}
			for r := 0; r < reps; r++ {
				x.Replicas = append(x.Replicas, Replica{
					Depot:   "d:1",
					ReadCap: "rc",
				})
			}
			e.Extents = append(e.Extents, x)
		}
		if e.Validate() != nil {
			return false
		}
		data, err := e.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return got.Length == e.Length && len(got.Extents) == stripes && got.ReplicationFactor() == reps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExpiryRoundTrip(t *testing.T) {
	e := sampleExNode()
	exp := time.Now().Add(30 * time.Minute).Truncate(time.Millisecond)
	e.Extents[0].Replicas[0].SetExpiry(exp)

	data, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Extents[0].Replicas[0].Expiry().Equal(exp) {
		t.Errorf("expiry = %v, want %v", got.Extents[0].Replicas[0].Expiry(), exp)
	}
	// Replicas without a recorded lease stay unknown after the round trip.
	if !got.Extents[0].Replicas[1].Expiry().IsZero() {
		t.Errorf("unset expiry round-tripped to %v", got.Extents[0].Replicas[1].Expiry())
	}
}

func TestExpiryBackwardCompat(t *testing.T) {
	// exNodes published before lease tracking existed have no expires
	// attribute; they must parse and report an unknown expiry.
	xml := `<exnode name="old" length="10">
  <extent offset="0" length="10">
    <replica depot="d:1" read="r" manage="m" allocOffset="0"></replica>
  </extent>
</exnode>`
	e, err := Unmarshal([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Extents[0].Replicas[0].Expiry().IsZero() {
		t.Errorf("legacy replica reports expiry %v", e.Extents[0].Replicas[0].Expiry())
	}
	// And marshalling a lease-free replica must not emit the attribute, so
	// older consumers see byte-identical structure.
	out, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "expires") {
		t.Errorf("marshal of legacy exNode emitted expires attribute:\n%s", out)
	}
}

func TestSetExpiryZeroClears(t *testing.T) {
	var r Replica
	r.SetExpiry(time.UnixMilli(1234))
	if r.ExpiresMs != 1234 {
		t.Fatalf("ExpiresMs = %d", r.ExpiresMs)
	}
	r.SetExpiry(time.Time{})
	if r.ExpiresMs != 0 || !r.Expiry().IsZero() {
		t.Errorf("zero time did not clear expiry: %d", r.ExpiresMs)
	}
}

func TestLeaseHorizon(t *testing.T) {
	e := sampleExNode()
	if !e.LeaseHorizon().IsZero() {
		t.Errorf("horizon with no recorded leases = %v", e.LeaseHorizon())
	}
	late := time.Now().Add(time.Hour)
	early := time.Now().Add(10 * time.Minute)
	e.Extents[0].Replicas[0].SetExpiry(late)
	e.Extents[2].Replicas[0].SetExpiry(early)
	if got := e.LeaseHorizon(); !got.Equal(time.UnixMilli(early.UnixMilli())) {
		t.Errorf("horizon = %v, want earliest %v", got, early)
	}
}

func TestClone(t *testing.T) {
	e := sampleExNode()
	c := e.Clone()
	c.Extents[0].Replicas[0].Depot = "mutated:1"
	c.Extents[1].Replicas = append(c.Extents[1].Replicas, Replica{Depot: "new:1", ReadCap: "x"})
	if e.Extents[0].Replicas[0].Depot != "ca1:6714" {
		t.Error("clone shares replica storage with original")
	}
	if len(e.Extents[1].Replicas) != 1 {
		t.Error("append to clone grew the original")
	}
	if err := e.Validate(); err != nil {
		t.Error(err)
	}
}

// FuzzExNodeUnmarshal: whatever XML Unmarshal accepts — a DVS answer, an
// exNode cache entry — is a valid exNode whose extents tile exactly its
// length, and it survives Marshal unchanged.
func FuzzExNodeUnmarshal(f *testing.F) {
	for _, e := range []*ExNode{sampleExNode(), {Name: "empty"}} {
		doc, err := e.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`<exnode name="x" length="9223372036854775807"><extent offset="0" length="9223372036854775807"><replica depot="d:1" read="r"/></extent></exnode>`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		e, err := Unmarshal(doc)
		if err != nil {
			return
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("accepted an exNode that does not validate: %v", err)
		}
		var sum int64
		for _, x := range e.Extents {
			if x.Length > math.MaxInt64-sum {
				t.Fatalf("extent lengths overflow past %d", sum)
			}
			sum += x.Length
		}
		if sum != e.Length {
			t.Fatalf("extents sum to %d, length is %d", sum, e.Length)
		}
		again, err := e.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(again)
		if err != nil || !reflect.DeepEqual(back, e) {
			t.Fatalf("marshal round trip: %v\n got %+v\nwant %+v", err, back, e)
		}
	})
}
