// Package trace models contact traces: who was within radio range of whom,
// and when. Traces are the substrate every forwarding experiment runs on.
// They can be generated synthetically (internal/mobility) or parsed from
// CRAWDAD-imote-style text files.
package trace

import (
	"errors"
	"fmt"
	"sort"

	"give2get/internal/sim"
)

// NodeID identifies a device in a trace. IDs are dense: a trace with N nodes
// uses IDs 0..N-1.
type NodeID int

// Contact is one interval during which two nodes can exchange messages.
// The pair is stored with A < B; direction is irrelevant at the radio level.
type Contact struct {
	A, B       NodeID
	Start, End sim.Time
}

// Duration returns the contact's length.
func (c Contact) Duration() sim.Time { return c.End - c.Start }

// Normalize orders the endpoints so that A < B.
func (c Contact) Normalize() Contact {
	if c.A > c.B {
		c.A, c.B = c.B, c.A
	}
	return c
}

// Validate checks the structural invariants of a contact.
func (c Contact) Validate(nodes int) error {
	switch {
	case c.A < 0 || int(c.A) >= nodes || c.B < 0 || int(c.B) >= nodes:
		return fmt.Errorf("trace: contact endpoints (%d,%d) out of range [0,%d)", c.A, c.B, nodes)
	case c.A == c.B:
		return fmt.Errorf("trace: self-contact on node %d", c.A)
	case c.End < c.Start:
		return fmt.Errorf("trace: contact (%d,%d) ends (%v) before it starts (%v)", c.A, c.B, c.End, c.Start)
	case c.Start < 0:
		return fmt.Errorf("trace: contact (%d,%d) starts before the epoch", c.A, c.B)
	default:
		return nil
	}
}

// Trace is an immutable, time-ordered collection of contacts between a fixed
// set of nodes.
type Trace struct {
	name     string
	nodes    int
	contacts []Contact // sorted by Start, then End, then (A,B)
}

// ErrNoNodes is returned when constructing a trace with a non-positive node
// count.
var ErrNoNodes = errors.New("trace: node count must be positive")

// New builds a trace from the given contacts. The slice is copied, endpoint
// order normalized, and the result sorted by start time. Every contact is
// validated against the node count.
func New(name string, nodes int, contacts []Contact) (*Trace, error) {
	if nodes <= 0 {
		return nil, ErrNoNodes
	}
	cs := make([]Contact, len(contacts))
	for i, c := range contacts {
		c = c.Normalize()
		if err := c.Validate(nodes); err != nil {
			return nil, fmt.Errorf("contact %d: %w", i, err)
		}
		cs[i] = c
	}
	sort.Slice(cs, func(i, j int) bool {
		return CompareContacts(cs[i], cs[j]) < 0
	})
	return &Trace{name: name, nodes: nodes, contacts: cs}, nil
}

// CompareContacts orders contacts by the canonical (Start, End, A, B) tuple:
// the order New sorts into, the streaming cursors yield, and the binary
// format stores. It returns -1, 0, or +1.
func CompareContacts(x, y Contact) int {
	switch {
	case x.Start != y.Start:
		return cmpOrder(x.Start < y.Start)
	case x.End != y.End:
		return cmpOrder(x.End < y.End)
	case x.A != y.A:
		return cmpOrder(x.A < y.A)
	case x.B != y.B:
		return cmpOrder(x.B < y.B)
	default:
		return 0
	}
}

func cmpOrder(less bool) int {
	if less {
		return -1
	}
	return 1
}

// Name returns the trace's human-readable label (e.g. "infocom05-synth").
func (t *Trace) Name() string { return t.name }

// Nodes returns the number of nodes in the trace.
func (t *Trace) Nodes() int { return t.nodes }

// Len returns the number of contacts.
func (t *Trace) Len() int { return len(t.contacts) }

// Contacts returns the time-ordered contacts. The returned slice is shared;
// callers must not modify it.
func (t *Trace) Contacts() []Contact { return t.contacts }

// Span returns the first start and the last end in the trace. An empty
// trace spans (0, 0).
func (t *Trace) Span() (first, last sim.Time) {
	if len(t.contacts) == 0 {
		return 0, 0
	}
	first = t.contacts[0].Start
	for _, c := range t.contacts {
		if c.End > last {
			last = c.End
		}
	}
	return first, last
}

// Window extracts the sub-trace overlapping [from, to), clipping contact
// intervals to the window and re-basing times so the window starts at the
// epoch. This mirrors the paper's "isolated 3-hour periods".
func (t *Trace) Window(from, to sim.Time) (*Trace, error) {
	if to <= from {
		return nil, fmt.Errorf("trace: empty window [%v,%v)", from, to)
	}
	var out []Contact
	for _, c := range t.contacts {
		if c.End <= from || c.Start >= to {
			continue
		}
		start, end := c.Start, c.End
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		out = append(out, Contact{A: c.A, B: c.B, Start: start - from, End: end - from})
	}
	return New(fmt.Sprintf("%s[%v,%v)", t.name, from, to), t.nodes, out)
}
