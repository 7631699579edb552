// Package obs is the instrumentation layer of the simulation stack: atomic
// run counters and fixed-bucket histograms (grouped per subsystem in a
// Metrics registry), leveled structured tracing (TraceSink, its JSON-lines
// implementation and a fan-out), and profiling hooks for the CLIs.
//
// The package is stdlib-only and sits below every other package in the
// repository, so the sim kernel, the crypto substrate, the protocol layer and
// the engine can all record into it without import cycles. Every recording
// entry point is nil-safe and allocation-free: a nil *Metrics (or a nil
// sub-stats pointer, or a nil TraceSink) short-circuits immediately, which is
// what keeps instrumentation zero-cost when disabled — the engine's
// BenchmarkTelemetryOverhead and the allocation tests in this package prove
// it.
//
// Telemetry never feeds back into simulation state: counters and wall-clock
// timings are observations only, so instrumented runs stay bit-for-bit
// deterministic in virtual time.
package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Level classifies trace records.
type Level int8

// Trace levels, from chattiest to most severe.
const (
	// LevelDebug marks high-volume records (per-challenge test events).
	LevelDebug Level = iota
	// LevelInfo marks the per-message lifecycle (generate/replicate/deliver)
	// and run milestones (phase transitions, progress).
	LevelInfo
	// LevelWarn marks exceptional records (misbehavior detections).
	LevelWarn
)

// String returns the level's canonical lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// Record is one typed trace event, timestamped in both simulation time (Sim,
// the virtual offset from the run epoch) and wall time (Wall, stamped by the
// emitter when a sink is attached; zero otherwise).
//
// Node-id fields use -1 for "not applicable" because 0 is a valid node id;
// NewRecord returns a Record with them pre-blanked.
type Record struct {
	Sim   time.Duration
	Wall  time.Time
	Level Level
	// Event names the record type: "generate", "replicate", "deliver",
	// "test", "detect", or a run milestone such as "phase" or "progress".
	Event string
	// Msg is the short message digest (8 hex chars), "" when not applicable.
	Msg string
	// From, To, Node identify the involved nodes; -1 when not applicable.
	From, To, Node int
	// Reason is set on detect records.
	Reason string
	// Passed is meaningful only when HasPassed is set (test records).
	Passed    bool
	HasPassed bool
}

// NewRecord returns a Record with the node-id fields blanked to -1.
func NewRecord(simAt time.Duration, level Level, event string) Record {
	return Record{Sim: simAt, Level: level, Event: event, From: -1, To: -1, Node: -1}
}

// appendJSON appends the record's canonical JSON encoding (no trailing
// newline). Field order is fixed: t, wall, level, event, msg, from, to,
// node, reason, passed; inapplicable fields are omitted.
func (r Record) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendQuote(dst, r.Sim.String())
	if !r.Wall.IsZero() {
		dst = append(dst, `,"wall":`...)
		dst = r.Wall.AppendFormat(append(dst, '"'), time.RFC3339Nano)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"level":`...)
	dst = strconv.AppendQuote(dst, r.Level.String())
	dst = append(dst, `,"event":`...)
	dst = strconv.AppendQuote(dst, r.Event)
	if r.Msg != "" {
		dst = append(dst, `,"msg":`...)
		dst = strconv.AppendQuote(dst, r.Msg)
	}
	if r.From >= 0 {
		dst = append(dst, `,"from":`...)
		dst = strconv.AppendInt(dst, int64(r.From), 10)
	}
	if r.To >= 0 {
		dst = append(dst, `,"to":`...)
		dst = strconv.AppendInt(dst, int64(r.To), 10)
	}
	if r.Node >= 0 {
		dst = append(dst, `,"node":`...)
		dst = strconv.AppendInt(dst, int64(r.Node), 10)
	}
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = strconv.AppendQuote(dst, r.Reason)
	}
	if r.HasPassed {
		dst = append(dst, `,"passed":`...)
		dst = strconv.AppendBool(dst, r.Passed)
	}
	return append(dst, '}')
}

// MarshalJSON implements json.Marshaler with the canonical field order.
func (r Record) MarshalJSON() ([]byte, error) {
	return r.appendJSON(nil), nil
}

// String renders the record as one compact human-readable line — the format
// of event-timeline excerpts in diagnostics (invariant-violation reports).
// Wall time is omitted: the line depends only on the virtual event, so the
// same run always renders the same excerpt.
func (r Record) String() string {
	buf := make([]byte, 0, 64)
	buf = append(buf, "t="...)
	buf = append(buf, r.Sim.String()...)
	buf = append(buf, ' ')
	buf = append(buf, r.Event...)
	if r.Msg != "" {
		buf = append(buf, " msg="...)
		buf = append(buf, r.Msg...)
	}
	if r.From >= 0 {
		buf = append(buf, " from="...)
		buf = strconv.AppendInt(buf, int64(r.From), 10)
	}
	if r.To >= 0 {
		buf = append(buf, " to="...)
		buf = strconv.AppendInt(buf, int64(r.To), 10)
	}
	if r.Node >= 0 {
		buf = append(buf, " node="...)
		buf = strconv.AppendInt(buf, int64(r.Node), 10)
	}
	if r.Reason != "" {
		buf = append(buf, " reason="...)
		buf = append(buf, r.Reason...)
	}
	if r.HasPassed {
		buf = append(buf, " passed="...)
		buf = strconv.AppendBool(buf, r.Passed)
	}
	return string(buf)
}

// TraceSink receives trace records. Implementations must be safe for
// concurrent use; emitters are expected to check Enabled before building a
// Record so that disabled levels cost nothing.
type TraceSink interface {
	// Enabled reports whether records at the given level are captured.
	Enabled(Level) bool
	// Emit captures one record. The sink must not retain slices aliased
	// into the caller's buffers (Record contains none).
	Emit(Record)
}

// JSONSink writes one JSON object per record, newline-delimited, dropping
// records below its minimum level. It is safe for concurrent use.
type JSONSink struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
	buf []byte
	err error
}

// NewJSONSink returns a sink writing records at or above min to w.
func NewJSONSink(w io.Writer, min Level) *JSONSink {
	return &JSONSink{w: w, min: min}
}

// Enabled implements TraceSink.
func (s *JSONSink) Enabled(l Level) bool { return s != nil && l >= s.min }

// Emit implements TraceSink. A write error never breaks the simulation:
// the sink keeps the first one for Err and writes nothing after it.
func (s *JSONSink) Emit(rec Record) {
	if !s.Enabled(rec.Level) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.buf = rec.appendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	_, s.err = s.w.Write(s.buf)
}

// Err returns the first write error, or nil when every record was written.
func (s *JSONSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
