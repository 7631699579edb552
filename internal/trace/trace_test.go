package trace

import (
	"errors"
	"testing"
	"testing/quick"

	"give2get/internal/sim"
)

func c(a, b NodeID, start, end sim.Time) Contact {
	return Contact{A: a, B: b, Start: start, End: end}
}

func TestNewSortsAndNormalizes(t *testing.T) {
	tr, err := New("t", 4, []Contact{
		c(3, 1, 10*sim.Second, 20*sim.Second),
		c(0, 1, 5*sim.Second, 8*sim.Second),
		c(2, 0, 5*sim.Second, 6*sim.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	first := tr.Contacts()[0]
	if first.Start != 5*sim.Second || first.A != 0 || first.B != 2 {
		t.Errorf("first contact = %+v, want (0,2) at 5s", first)
	}
	if got := tr.Contacts()[2]; got.A != 1 || got.B != 3 {
		t.Errorf("last contact endpoints = (%d,%d), want (1,3)", got.A, got.B)
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		nodes   int
		contact Contact
	}{
		{name: "self contact", nodes: 3, contact: c(1, 1, 0, sim.Second)},
		{name: "node out of range", nodes: 3, contact: c(0, 3, 0, sim.Second)},
		{name: "negative node", nodes: 3, contact: c(-1, 2, 0, sim.Second)},
		{name: "end before start", nodes: 3, contact: c(0, 1, 2*sim.Second, sim.Second)},
		{name: "negative start", nodes: 3, contact: c(0, 1, -sim.Second, sim.Second)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New("t", tt.nodes, []Contact{tt.contact}); err == nil {
				t.Errorf("New accepted invalid contact %+v", tt.contact)
			}
		})
	}
	if _, err := New("t", 0, nil); !errors.Is(err, ErrNoNodes) {
		t.Errorf("New with 0 nodes: err = %v, want ErrNoNodes", err)
	}
}

func TestContactHelpers(t *testing.T) {
	ct := c(2, 5, sim.Minute, 3*sim.Minute)
	if got := ct.Duration(); got != 2*sim.Minute {
		t.Errorf("Duration = %v", got)
	}
}

func TestSpan(t *testing.T) {
	tr, err := New("t", 3, []Contact{
		c(0, 1, 10*sim.Second, 90*sim.Second),
		c(1, 2, 20*sim.Second, 40*sim.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := tr.Span()
	if first != 10*sim.Second || last != 90*sim.Second {
		t.Errorf("Span = (%v,%v)", first, last)
	}

	empty, err := New("e", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, l := empty.Span(); f != 0 || l != 0 {
		t.Errorf("empty Span = (%v,%v)", f, l)
	}
}

func TestWindow(t *testing.T) {
	tr, err := New("t", 3, []Contact{
		c(0, 1, 0, 10*sim.Minute),             // clipped at both window edges
		c(1, 2, 6*sim.Minute, 7*sim.Minute),   // inside
		c(0, 2, 20*sim.Minute, 30*sim.Minute), // outside
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tr.Window(5*sim.Minute, 8*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("window Len = %d, want 2", w.Len())
	}
	clipped := w.Contacts()[0]
	if clipped.Start != 0 || clipped.End != 3*sim.Minute {
		t.Errorf("clipped contact = [%v,%v], want [0,3m]", clipped.Start, clipped.End)
	}
	inside := w.Contacts()[1]
	if inside.Start != sim.Minute || inside.End != 2*sim.Minute {
		t.Errorf("inside contact = [%v,%v], want [1m,2m]", inside.Start, inside.End)
	}

	if _, err := tr.Window(8*sim.Minute, 5*sim.Minute); err == nil {
		t.Error("inverted window accepted")
	}
}

// TestWindowProperty: every contact in a window fits inside the re-based
// window bounds and preserves its pair.
func TestWindowProperty(t *testing.T) {
	property := func(raw []uint16) bool {
		contacts := make([]Contact, 0, len(raw)/3)
		for i := 0; i+2 < len(raw); i += 3 {
			a := NodeID(raw[i] % 10)
			b := NodeID(raw[i+1] % 10)
			if a == b {
				continue
			}
			start := sim.Time(raw[i+2]%1000) * sim.Second
			contacts = append(contacts, Contact{A: a, B: b, Start: start, End: start + 30*sim.Second})
		}
		tr, err := New("p", 10, contacts)
		if err != nil {
			return false
		}
		from, to := 100*sim.Second, 400*sim.Second
		w, err := tr.Window(from, to)
		if err != nil {
			return false
		}
		for _, wc := range w.Contacts() {
			if wc.Start < 0 || wc.End > to-from || wc.Start > wc.End {
				return false
			}
		}
		return w.Len() <= tr.Len()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
