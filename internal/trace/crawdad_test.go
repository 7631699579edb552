package trace

import (
	"bytes"
	"strings"
	"testing"

	"give2get/internal/sim"
)

func TestParseBasic(t *testing.T) {
	const input = `# nodes=5 name=lab
# a comment
0 1 0.0 12.5
2 3 100 160

4 0 200.25 201
`
	tr, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 5 {
		t.Errorf("Nodes = %d, want 5", tr.Nodes())
	}
	if tr.Name() != "lab" {
		t.Errorf("Name = %q, want lab", tr.Name())
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if got := tr.Contacts()[0]; got.End != sim.Seconds(12.5) {
		t.Errorf("first end = %v", got.End)
	}
}

func TestParseInfersNodeCount(t *testing.T) {
	tr, err := Parse(strings.NewReader("0 7 0 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 8 {
		t.Errorf("Nodes = %d, want 8", tr.Nodes())
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{name: "too few fields", input: "0 1 5\n"},
		{name: "bad node", input: "x 1 0 5\n"},
		{name: "bad node B", input: "0 x 0 5\n"},
		{name: "bad start", input: "0 1 x 5\n"},
		{name: "bad end", input: "0 1 0 x\n"},
		{name: "empty input", input: ""},
		{name: "self contact", input: "1 1 0 5\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tt.input)); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tt.input)
			}
		})
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig, err := New("round", 6, []Contact{
		c(0, 1, 0, 10*sim.Second),
		c(4, 5, 30*sim.Second, 95*sim.Second),
		c(1, 2, sim.Seconds(12.75), sim.Seconds(13.5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Nodes() != orig.Nodes() || parsed.Name() != orig.Name() || parsed.Len() != orig.Len() {
		t.Fatalf("round trip mismatch: %d/%s/%d vs %d/%s/%d",
			parsed.Nodes(), parsed.Name(), parsed.Len(),
			orig.Nodes(), orig.Name(), orig.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		a, b := orig.Contacts()[i], parsed.Contacts()[i]
		if a.A != b.A || a.B != b.B || a.Start != b.Start || a.End != b.End {
			t.Errorf("contact %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}
