package trace

import (
	"bytes"
	"strings"
	"testing"

	"give2get/internal/sim"
)

// FuzzParseTrace exercises the CRAWDAD-style parser with arbitrary text.
// Under plain `go test` only the seed corpus runs; `make fuzz` mutates it.
func FuzzParseTrace(f *testing.F) {
	f.Add("# nodes=3 name=x\n0 1 0 5\n1 2 6.5 8\n")
	f.Add("0 1 0 5")
	f.Add("")
	f.Add("# nodes=1\n")
	f.Add("0 0 0 0\n")
	f.Add("a b c d\n")

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		// A successfully parsed trace must serialize and re-parse into an
		// equivalent trace.
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatalf("write: %v", err)
		}
		again, err := Parse(&buf)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if again.Nodes() != tr.Nodes() || again.Len() != tr.Len() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				again.Nodes(), again.Len(), tr.Nodes(), tr.Len())
		}
	})
}

// FuzzParseBinaryTrace throws arbitrary bytes at the binary reader: it must
// never panic, and whenever it does accept an input, the decoded trace must
// re-encode and decode into the same shape (the reader's validation is
// strict enough that acceptance implies a well-formed file).
func FuzzParseBinaryTrace(f *testing.F) {
	// Seed with genuine files of a few shapes, plus junk.
	for _, shape := range []struct{ nodes, contacts int }{{2, 0}, {3, 5}, {8, 200}} {
		rng := sim.StreamFromSeed(int64(shape.contacts), "fuzz-seed")
		cs := make([]Contact, shape.contacts)
		for i := range cs {
			a := rng.Intn(shape.nodes - 1)
			start := sim.Time(rng.Intn(3600)) * sim.Second
			cs[i] = Contact{
				A: NodeID(a), B: NodeID(a + 1),
				Start: start, End: start + sim.Time(1+rng.Intn(600))*sim.Second,
			}
		}
		tr, err := New("seed", shape.nodes, cs)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})
	f.Add([]byte("G2GTjunk"))

	f.Fuzz(func(t *testing.T, input []byte) {
		tr, err := parseBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("re-encode accepted trace: %v", err)
		}
		again, err := parseBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again.Nodes() != tr.Nodes() || again.Len() != tr.Len() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				again.Nodes(), again.Len(), tr.Nodes(), tr.Len())
		}
	})
}
