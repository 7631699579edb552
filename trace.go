package give2get

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"give2get/internal/kclique"
	"give2get/internal/mobility"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// Preset names a built-in synthetic dataset.
type Preset string

// Built-in presets modelled after the paper's CRAWDAD datasets.
const (
	// PresetInfocom05 resembles the Infocom 05 trace: 41 conference
	// attendees over 3 days with dense, fast-re-meeting contacts.
	PresetInfocom05 Preset = "infocom05"
	// PresetCambridge06 resembles the Cambridge 06 trace: 36 students over
	// 11 days with sparser, community-clustered contacts.
	PresetCambridge06 Preset = "cambridge06"
)

// Trace is an immutable contact trace. It wraps a streaming source: a trace
// opened from a binary file (OpenTrace on a .g2gt file) stays on disk and is
// streamed into simulations, while analysis methods that need random access
// (Stats, Communities, Window, InterContactCCDF) materialize it in memory
// lazily, at most once.
type Trace struct {
	src trace.Source

	mu  sync.Mutex
	mem *trace.Trace // non-nil once materialized (or when born in memory)
}

func newTrace(tr *trace.Trace) *Trace { return &Trace{src: tr, mem: tr} }

// TraceStats summarizes a trace.
type TraceStats struct {
	Nodes            int
	Contacts         int
	Span             time.Duration
	MeanContact      time.Duration
	MeanInterContact time.Duration
}

// GenerateTrace draws a synthetic trace from a preset, deterministically for
// a given seed.
func GenerateTrace(preset Preset, seed int64) (*Trace, error) {
	var cfg mobility.Config
	switch preset {
	case PresetInfocom05:
		cfg = mobility.Infocom05()
	case PresetCambridge06:
		cfg = mobility.Cambridge06()
	default:
		return nil, fmt.Errorf("give2get: unknown preset %q", preset)
	}
	tr, err := mobility.Generate(cfg, seed)
	if err != nil {
		return nil, err
	}
	return newTrace(tr), nil
}

// ParseTrace reads a CRAWDAD-imote-style contact listing: one contact per
// line as "<nodeA> <nodeB> <startSeconds> <endSeconds>", with optional
// "# nodes=N name=..." header and '#' comments.
func ParseTrace(r io.Reader) (*Trace, error) {
	tr, err := trace.Parse(r)
	if err != nil {
		return nil, err
	}
	return newTrace(tr), nil
}

// OpenTrace loads a trace from a file, sniffing the format from the leading
// bytes: a binary .g2gt trace (written by WriteBinary, or by `tracegen -out
// x.g2gt`) opens as a lazy streaming source that is fed to simulations
// without ever being loaded whole; a text listing is parsed into memory as
// with ParseTrace.
func OpenTrace(path string) (*Trace, error) {
	src, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	t := &Trace{src: src}
	if tr, ok := src.(*trace.Trace); ok {
		t.mem = tr
	}
	return t, nil
}

// materialize loads the full contact slice into memory, at most once.
func (t *Trace) materialize() (*trace.Trace, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mem == nil {
		tr, err := trace.Materialize(t.src)
		if err != nil {
			return nil, err
		}
		t.mem = tr
	}
	return t.mem, nil
}

// Write serializes the trace in the text format ParseTrace accepts,
// streaming from the underlying source.
func (t *Trace) Write(w io.Writer) error {
	if t == nil || t.src == nil {
		return errors.New("give2get: nil trace")
	}
	return trace.WriteText(w, t.src)
}

// WriteBinary serializes the trace in the compact sorted binary format
// OpenTrace streams (conventionally a .g2gt file): delta-encoded columnar
// blocks that load without parsing and without materializing.
func (t *Trace) WriteBinary(w io.Writer) error {
	if t == nil || t.src == nil {
		return errors.New("give2get: nil trace")
	}
	return trace.WriteBinary(w, t.src)
}

// Name returns the trace label.
func (t *Trace) Name() string { return t.src.Name() }

// Nodes returns the population size.
func (t *Trace) Nodes() int { return t.src.Nodes() }

// Contacts returns the number of contact intervals. For file-backed traces
// this reads the file's footer, not the contacts; it returns -1 if the
// count cannot be determined.
func (t *Trace) Contacts() int {
	n, err := trace.LenOf(t.src)
	if err != nil {
		return -1
	}
	return n
}

// Stats computes summary statistics. The trace is materialized if it is
// still on disk.
func (t *Trace) Stats() (TraceStats, error) {
	tr, err := t.materialize()
	if err != nil {
		return TraceStats{}, err
	}
	s := trace.ComputeStats(tr)
	return TraceStats{
		Nodes:            s.Nodes,
		Contacts:         s.Contacts,
		Span:             s.Span.Duration(),
		MeanContact:      s.MeanContact.Duration(),
		MeanInterContact: s.MeanInterContact.Duration(),
	}, nil
}

// Communities runs k-clique percolation community detection (k = 3, with an
// adaptive contact-count threshold) and returns the member lists. A node may
// appear in several communities; nodes in none are omitted. The trace is
// materialized if it is still on disk.
func (t *Trace) Communities() ([][]int, error) {
	tr, err := t.materialize()
	if err != nil {
		return nil, err
	}
	comms, err := kclique.DetectAuto(tr, 3)
	if err != nil {
		return nil, err
	}
	out := make([][]int, comms.Len())
	for i := 0; i < comms.Len(); i++ {
		group := comms.Group(i)
		out[i] = make([]int, len(group))
		for j, n := range group {
			out[i][j] = int(n)
		}
	}
	return out, nil
}

// CCDFPoint is one point of the inter-contact time CCDF: the fraction of
// pairwise re-meeting gaps longer than T.
type CCDFPoint struct {
	T        time.Duration
	Fraction float64
}

// InterContactCCDF returns the empirical inter-contact time distribution at
// `points` log-spaced abscissae — the statistic the PSN literature uses to
// characterize these traces. The trace is materialized if it is still on
// disk.
func (t *Trace) InterContactCCDF(points int) ([]CCDFPoint, error) {
	tr, err := t.materialize()
	if err != nil {
		return nil, err
	}
	raw := trace.InterContactCCDF(tr, points)
	out := make([]CCDFPoint, len(raw))
	for i, p := range raw {
		out[i] = CCDFPoint{T: p.T.Duration(), Fraction: p.Fraction}
	}
	return out, nil
}

// Window extracts a sub-trace over [from, to) measured from the trace start,
// re-based so the window begins at time zero. The trace is materialized if
// it is still on disk.
func (t *Trace) Window(from, to time.Duration) (*Trace, error) {
	tr, err := t.materialize()
	if err != nil {
		return nil, err
	}
	w, err := tr.Window(sim.Time(from), sim.Time(to))
	if err != nil {
		return nil, err
	}
	return newTrace(w), nil
}
