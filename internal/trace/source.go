package trace

import "give2get/internal/sim"

// Source is anything that can stream a trace's contacts in the canonical
// (Start, End, A, B) order: the in-memory *Trace, the binary file reader
// (OpenBinary), or any other reader that keeps that order. A Source is a cheap
// handle — constructing one does not load the contacts — and every Cursor
// call yields an independent pass over the stream, so concurrent runs can
// each open their own cursor against one shared source.
type Source interface {
	// Name returns the trace's human-readable label.
	Name() string
	// Nodes returns the population size; node IDs are 0..Nodes()-1.
	Nodes() int
	// Cursor opens a fresh pass over the contacts, positioned before the
	// first one. The caller owns the cursor and must Close it.
	Cursor() (Cursor, error)
}

// Cursor is one sequential pass over a source's contacts, yielded in
// canonical order. The usage contract mirrors bufio.Scanner: call Next
// until it returns false, then check Err to distinguish end-of-stream
// from a read or validation failure.
type Cursor interface {
	// Next returns the next contact; ok is false at end of stream or on
	// error.
	Next() (c Contact, ok bool)
	// Err returns the first error the cursor hit, or nil after a clean
	// end of stream.
	Err() error
	// Close releases the cursor's resources (file handles, buffers).
	// It is safe to call more than once.
	Close() error
}

// Lener is an optional Source refinement for sources that know their
// contact count without a full scan (the in-memory trace, the binary
// reader via its footer).
type Lener interface {
	Len() int
}

// Spanner is an optional Source refinement for sources that know their
// time span — (first contact start, last contact end) — without a full
// scan.
type Spanner interface {
	Span() (first, last sim.Time)
}

// sliceCursor walks an in-memory contact slice.
type sliceCursor struct {
	cs []Contact
	i  int
}

func (c *sliceCursor) Next() (Contact, bool) {
	if c.i >= len(c.cs) {
		return Contact{}, false
	}
	v := c.cs[c.i]
	c.i++
	return v, true
}

func (c *sliceCursor) Err() error   { return nil }
func (c *sliceCursor) Close() error { return nil }

// Cursor opens a pass over the trace's contacts; *Trace is the in-memory
// Source implementation.
func (t *Trace) Cursor() (Cursor, error) {
	return &sliceCursor{cs: t.contacts}, nil
}

// Materialize drains a source into an in-memory *Trace. An in-memory
// source is returned as-is; anything else pays one full pass plus the
// usual New validation. Use it only where random access is genuinely
// needed (community detection, windowing) — the engine itself streams.
func Materialize(src Source) (*Trace, error) {
	if t, ok := src.(*Trace); ok {
		return t, nil
	}
	cur, err := src.Cursor()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var cs []Contact
	if l, ok := src.(Lener); ok {
		cs = make([]Contact, 0, l.Len())
	}
	for {
		c, ok := cur.Next()
		if !ok {
			break
		}
		cs = append(cs, c)
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return New(src.Name(), src.Nodes(), cs)
}

// SpanOf returns the source's (first start, last end) span, using the
// Spanner fast path when available and falling back to one streaming pass.
func SpanOf(src Source) (first, last sim.Time, err error) {
	if s, ok := src.(Spanner); ok {
		first, last = s.Span()
		return first, last, nil
	}
	cur, err := src.Cursor()
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	seen := false
	for {
		c, ok := cur.Next()
		if !ok {
			break
		}
		if !seen {
			first = c.Start
			seen = true
		}
		if c.End > last {
			last = c.End
		}
	}
	return first, last, cur.Err()
}

// LenOf returns the source's contact count, using the Lener fast path when
// available and falling back to one streaming pass.
func LenOf(src Source) (int, error) {
	if l, ok := src.(Lener); ok {
		return l.Len(), nil
	}
	cur, err := src.Cursor()
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		n++
	}
	return n, cur.Err()
}
