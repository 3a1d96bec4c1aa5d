package edge

import (
	"strings"
	"testing"
)

// FuzzParseCap feeds arbitrary capability strings — what lfedged reads off
// the wire as a LOAD's capability — to ParseCap, and arbitrary parts to
// Encode. ParseCap must not panic; whatever it accepts must encode back to
// the exact input with a non-empty origin depot and capability; and parts
// whose hint and depot hold no '!' must survive Encode then ParseCap
// unchanged when the depot and capability are non-empty, and be refused
// when either is empty.
func FuzzParseCap(f *testing.F) {
	f.Add("edge!r01c02!10.0.0.7:6714!ibp!weird!cap/with=stuff", "r01c02", "10.0.0.7:6714", "ibp!weird!cap/with=stuff")
	f.Add("plain-depot-cap", "", "127.0.0.1:1", "cap")
	f.Add("edge!h!!cap", "h", "", "cap")
	f.Add("edge!!d!", "", "d", "")
	f.Add("edge!!!", "!", "a!b", "c")
	f.Fuzz(func(t *testing.T, s, hint, depot, originCap string) {
		if c, ok := ParseCap(s); ok {
			if got := c.Encode(); got != s {
				t.Fatalf("ParseCap(%q) = %+v, which encodes to %q", s, c, got)
			}
			if c.OriginDepot == "" || c.OriginCap == "" {
				t.Fatalf("ParseCap(%q) accepted an empty origin: %+v", s, c)
			}
		}

		if strings.Contains(hint, "!") || strings.Contains(depot, "!") {
			return
		}
		c := Cap{Hint: hint, OriginDepot: depot, OriginCap: originCap}
		got, ok := ParseCap(c.Encode())
		if want := depot != "" && originCap != ""; ok != want {
			t.Fatalf("ParseCap(%q) ok=%v, want %v", c.Encode(), ok, want)
		}
		if ok && got != c {
			t.Fatalf("round trip of %+v gave %+v", c, got)
		}
	})
}
