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

// Parse reads a contact trace from r. If the header is absent, the node
// count is one more than the largest node ID seen.
func Parse(r io.Reader) (*Trace, error) {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1024*1024), 1024*1024)
	nodes, name := 0, "trace"
	var contacts []Contact
	for lineNo := 1; s.Scan(); lineNo++ {
		line := strings.TrimSpace(s.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parseHeader(line, &nodes, &name)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: node A: %w", lineNo, err)
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: node B: %w", lineNo, err)
		}
		start, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: start: %w", lineNo, err)
		}
		end, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: end: %w", lineNo, err)
		}
		nodes = max(nodes, a+1, b+1)
		contacts = append(contacts, Contact{
			A:     NodeID(a),
			B:     NodeID(b),
			Start: sim.Seconds(start),
			End:   sim.Seconds(end),
		})
	}
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if nodes == 0 {
		return nil, ErrNoNodes
	}
	return New(name, nodes, contacts)
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
