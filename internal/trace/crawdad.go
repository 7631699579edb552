package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"give2get/internal/sim"
)

// The on-disk format follows the CRAWDAD imote contact listings used by the
// paper's datasets: one contact per line,
//
//	<nodeA> <nodeB> <startSeconds> <endSeconds>
//
// with '#' comment lines. An optional header line
//
//	# nodes=<N> name=<label>
//
// pins the node count and trace name; without it both are inferred.

// TextScanner streams contacts out of a CRAWDAD-style listing one line at
// a time, in file order (NOT sorted), with O(1) memory: the importer path
// for text dumps too large to materialize. Parse wraps it for in-memory
// use. After the scan ends, Nodes and Name report the header values (or
// the inferred population when the header is absent).
type TextScanner struct {
	s      *bufio.Scanner
	nodes  int
	name   string
	lineNo int
	err    error
	done   bool
}

// NewTextScanner starts a streaming scan of r.
func NewTextScanner(r io.Reader) *TextScanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1024*1024), 1024*1024)
	return &TextScanner{s: s, name: "trace"}
}

// Next returns the next contact in file order; ok is false at end of input
// or on error (check Err).
func (ts *TextScanner) Next() (c Contact, ok bool) {
	if ts.err != nil || ts.done {
		return Contact{}, false
	}
	for ts.s.Scan() {
		ts.lineNo++
		line := strings.TrimSpace(ts.s.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parseHeader(line, &ts.nodes, &ts.name)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			ts.err = fmt.Errorf("trace: line %d: want 4 fields, got %d", ts.lineNo, len(fields))
			return Contact{}, false
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			ts.err = fmt.Errorf("trace: line %d: node A: %w", ts.lineNo, err)
			return Contact{}, false
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil {
			ts.err = fmt.Errorf("trace: line %d: node B: %w", ts.lineNo, err)
			return Contact{}, false
		}
		start, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			ts.err = fmt.Errorf("trace: line %d: start: %w", ts.lineNo, err)
			return Contact{}, false
		}
		end, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			ts.err = fmt.Errorf("trace: line %d: end: %w", ts.lineNo, err)
			return Contact{}, false
		}
		if a >= ts.nodes {
			ts.nodes = a + 1
		}
		if b >= ts.nodes {
			ts.nodes = b + 1
		}
		return Contact{
			A:     NodeID(a),
			B:     NodeID(b),
			Start: sim.Seconds(start),
			End:   sim.Seconds(end),
		}, true
	}
	if err := ts.s.Err(); err != nil {
		ts.err = fmt.Errorf("trace: read: %w", err)
	}
	ts.done = true
	return Contact{}, false
}

// Err returns the first scan error, or nil after a clean end of input.
func (ts *TextScanner) Err() error { return ts.err }

// Nodes returns the population: the header value or largest id seen + 1,
// whichever is greater. Meaningful once the scan has ended.
func (ts *TextScanner) Nodes() int { return ts.nodes }

// Name returns the trace label from the header, defaulting to "trace".
func (ts *TextScanner) Name() string { return ts.name }

// Parse reads a contact trace from r. If the header is absent, the node
// count is one more than the largest node ID seen.
func Parse(r io.Reader) (*Trace, error) {
	ts := NewTextScanner(r)
	var contacts []Contact
	for {
		c, ok := ts.Next()
		if !ok {
			break
		}
		contacts = append(contacts, c)
	}
	if err := ts.Err(); err != nil {
		return nil, err
	}
	if ts.Nodes() == 0 {
		return nil, ErrNoNodes
	}
	return New(ts.Name(), ts.Nodes(), contacts)
}

func parseHeader(line string, nodes *int, name *string) {
	for _, tok := range strings.Fields(strings.TrimPrefix(line, "#")) {
		key, value, ok := strings.Cut(tok, "=")
		if !ok {
			continue
		}
		switch key {
		case "nodes":
			if n, err := strconv.Atoi(value); err == nil && n > *nodes {
				*nodes = n
			}
		case "name":
			*name = value
		}
	}
}

// WriteText streams any source out as a CRAWDAD-style listing, including
// the header line: the text exporter for binary traces, O(1) memory.
func WriteText(w io.Writer, src Source) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d name=%s\n", src.Nodes(), src.Name()); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	cur, err := src.Cursor()
	if err != nil {
		return err
	}
	defer cur.Close()
	for {
		c, ok := cur.Next()
		if !ok {
			break
		}
		_, err := fmt.Fprintf(bw, "%d %d %.3f %.3f\n",
			c.A, c.B, sim.SecondsOf(c.Start), sim.SecondsOf(c.End))
		if err != nil {
			return fmt.Errorf("trace: write contact: %w", err)
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}
