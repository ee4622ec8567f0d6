package powertrace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV exercises the trace parser with arbitrary input: it must
// never panic, and anything it accepts must round-trip losslessly.
func FuzzReadCSV(f *testing.F) {
	f.Add("# name=x slot_seconds=60\n0,1.5\n1,2\n")
	f.Add("0,1\n")
	f.Add("")
	f.Add("# name=weird slot_seconds=1\n\n#comment\n5,0.000001\n")
	f.Add("not,a,number\n")
	f.Add("0;1\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("serialized trace failed to parse: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip changed length: %d → %d", tr.Len(), back.Len())
		}
	})
}
